// Command daspos-archive manages preservation archives: create adds a
// demonstration package — a fully populated analysis capsule — to an
// archive directory, creating it if needed; verify runs the fixity audit —
// one pass, naming each damaged package and file, exit status 1 if there is
// any — and list shows the package catalogue (and refuses a damaged
// archive).
//
// An archive is a directory: blobs/ holds one durable file per blob, each
// package's manifest among them, and packages.log one package ID per line,
// so create appends to it and rewrites nothing. verify checks manifests
// and payload alike, and a lost packages.log is rebuilt from the manifests
// (archive.Recover does the same for a cluster.Client, beside
// archive.NewWithStore). A directory an earlier build wrote, one whole
// package per packages.log line, opens as it is. verify and list also read
// the single-file images earlier builds wrote, read only.
//
// A run directory — daspos-pipeline -checkpoint-dir — is an archive too,
// one package per finished step, so verify audits a run and list shows its
// steps.
//
// migrate is the one reader of version-2 event files (the gob streams of
// early builds). Each package of an archive directory holding such a tier
// gets a new package beside it: the same metadata and files, each v2 tier
// as version 3, and migration.json (daspos-migration/1) naming the source,
// each migrated path, its format markers and events. It trusts a checked
// fetch of every source file and a proof on every event: the v3 bytes read
// back equal to the v2 decode (datamodel.MigrateV2). The source stays, a
// source some migration.json names is not migrated again, and a run's step
// packages are left alone. A failed fetch or proof ingests nothing for its
// package, and migrate exits 1.
//
// Usage:
//
//	daspos-archive create -out DIR [-seed S] [-events N]
//	daspos-archive verify -in DIR|IMAGE
//	daspos-archive list -in DIR|IMAGE
//	daspos-archive migrate -in DIR
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"daspos/internal/archive"
	"daspos/internal/core"
	"daspos/internal/datamodel"
	"daspos/internal/envcapture"
	"daspos/internal/generator"
	"daspos/internal/interview"
	"daspos/internal/leshouches"
	"daspos/internal/provenance"
	"daspos/internal/rivet"
	"daspos/internal/texttable"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("daspos-archive: ")
	if len(os.Args) < 2 {
		log.Fatal("usage: daspos-archive {create|verify|list|migrate} [flags]")
	}
	switch os.Args[1] {
	case "create":
		create(os.Stdout, os.Args[2:])
	case "verify", "list":
		inspect(os.Args[1], os.Args[2:])
	case "migrate":
		if !migrate(os.Stdout, os.Args[2:]) {
			os.Exit(1)
		}
	default:
		log.Fatalf("unknown subcommand %q", os.Args[1])
	}
}

func create(w io.Writer, args []string) {
	fs := flag.NewFlagSet("create", flag.ExitOnError)
	out := fs.String("out", "archive.daspos", "archive directory to create or add to")
	seed := fs.Uint64("seed", 7, "seed for the demonstration capsule's reference run")
	events := fs.Int("events", 2000, "reference-run statistics")
	_ = fs.Parse(args)

	capsule := buildDemoCapsule(*seed, *events)
	a, err := archive.Open(*out)
	if err != nil {
		log.Fatal(err)
	}
	id, err := capsule.Ingest(a)
	if err != nil {
		log.Fatal(err)
	}
	// The summary is the added package's own record: it reads no blob, so
	// it costs the same however large the archive is.
	pkg, _ := a.Get(id)
	if err := a.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(w, "created %s: package %s\n", *out, id)
	fmt.Fprintf(w, "payload %s in %d files\n", interview.FormatBytes(pkg.TotalBytes()), len(pkg.Files))
}

// inspect loads the archive at -in and audits it (verify) or prints its
// catalogue (list).
func inspect(cmd string, args []string) {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	in := fs.String("in", "archive.daspos", "archive directory or image to "+cmd)
	_ = fs.Parse(args)
	a, err := load(*in)
	if err != nil {
		log.Fatal(err)
	}
	if cmd == "verify" {
		if !audit(os.Stdout, a) {
			os.Exit(1)
		}
	} else if err := catalogue(os.Stdout, a); err != nil {
		log.Fatal(err)
	}
}

// audit makes the one fixity pass over an archive, prints the report —
// every damaged package with the file that failed and why — and reports
// whether the archive is whole.
func audit(w io.Writer, a *archive.Archive) bool {
	rep := a.VerifyAll()
	fmt.Fprintf(w, "packages: %d, healthy: %d\n", rep.Packages, rep.Healthy)
	for _, id := range a.IDs() {
		if msg, bad := rep.Damaged[id]; bad {
			fmt.Fprintf(w, "DAMAGED %s: %s\n", id, msg)
		}
	}
	return len(rep.Damaged) == 0
}

// catalogue prints the package table of an archive that passes its audit,
// and refuses one that does not.
func catalogue(w io.Writer, a *archive.Archive) error {
	if rep := a.VerifyAll(); len(rep.Damaged) > 0 {
		return fmt.Errorf("%d packages damaged: verify names them", len(rep.Damaged))
	}
	t := texttable.New("ID", "Title", "Level", "Files", "Bytes")
	t.Title = "Archive catalogue"
	t.SetAlign(3, texttable.Right)
	t.SetAlign(4, texttable.Right)
	for _, id := range a.IDs() {
		pkg, _ := a.Get(id)
		t.AddRow(id[:12], pkg.Metadata.Title, pkg.Metadata.Level.String(),
			len(pkg.Files), interview.FormatBytes(pkg.TotalBytes()))
	}
	_, err := fmt.Fprintln(w, t)
	return err
}

// migrationFile is the record a migrated package holds beside its files:
// the source package and each tier rewritten, by its path in both.
const migrationFile = "migration.json"

type migrationRecord struct {
	Format string         `json:"format"` // migrationFormat
	Source string         `json:"source"`
	Files  []migratedFile `json:"files"`
}

type migratedFile struct {
	Path   string `json:"path"`
	From   string `json:"from"`
	To     string `json:"to"`
	Events int    `json:"events"`
}

const migrationFormat = "daspos-migration/1"

// migrate migrates the archive directory at -in: it prints one line per
// package migrated or failed, then a summary, and reports whether no
// package failed.
func migrate(w io.Writer, args []string) bool {
	fs := flag.NewFlagSet("migrate", flag.ExitOnError)
	in := fs.String("in", "archive.daspos", "archive directory to migrate")
	_ = fs.Parse(args)
	if fi, err := os.Stat(*in); err != nil || !fi.IsDir() {
		log.Fatalf("migrate: %s is not an archive directory", *in)
	}
	a, err := archive.Open(*in)
	if err != nil {
		log.Fatal(err)
	}
	ids := a.IDs()
	var steps, already, migrated, failed int
	fail := func(id string, err error) {
		fmt.Fprintf(w, "FAILED %s: %v\n", id, err)
		failed++
	}
	// A migration's own package names its source: read them all first.
	sources := make(map[string]bool)
	for _, id := range ids {
		if pkg, _ := a.Get(id); pkg.File(migrationFile) != nil {
			var rec migrationRecord
			data, err := a.Fetch(id, migrationFile)
			if err == nil && (json.Unmarshal(data, &rec) != nil || rec.Format != migrationFormat) {
				err = fmt.Errorf("%s is not a %s record", migrationFile, migrationFormat)
			}
			if err != nil {
				fail(id, err)
			} else {
				sources[rec.Source] = true
			}
		}
	}
	for _, id := range ids {
		switch pkg, _ := a.Get(id); {
		case pkg.Metadata.Provenance == "step.json":
			steps++
		case pkg.File(migrationFile) != nil: // a migration's own package
		case sources[id]:
			already++
		default:
			to, rec, err := migratePackage(a, id, pkg)
			if err != nil {
				fail(id, err)
			} else if to != "" {
				migrated++
				fmt.Fprintf(w, "MIGRATED %s as %s\n", id, to)
				for _, f := range rec.Files {
					fmt.Fprintf(w, "  %s: %s -> %s, %d events\n", f.Path, f.From, f.To, f.Events)
				}
			}
		}
	}
	fmt.Fprintf(w, "packages: %d, migrated: %d, already migrated: %d, run steps left alone: %d, failed: %d\n",
		len(ids), migrated, already, steps, failed)
	if err := a.Close(); err != nil {
		log.Fatal(err)
	}
	return failed == 0
}

// migratePackage fetches every file of package id, checked, and if any is
// a version-2 event tier ingests the package again, each such tier
// rewritten and proved by datamodel.MigrateV2, with migration.json. It
// returns the new package's ID and its record, or no ID and no error for a
// package without a v2 tier.
func migratePackage(a *archive.Archive, id string, pkg *archive.Package) (string, migrationRecord, error) {
	rec := migrationRecord{Format: migrationFormat, Source: id}
	files := make(map[string][]byte, len(pkg.Files)+1)
	for _, f := range pkg.Files {
		data, err := a.Fetch(id, f.Path)
		if err != nil {
			return "", rec, err
		}
		v3, events, err := datamodel.MigrateV2(data)
		if err == nil {
			data = v3
			rec.Files = append(rec.Files, migratedFile{f.Path, datamodel.CodecV2, datamodel.Codec, events})
		} else if !errors.Is(err, datamodel.ErrNotV2) {
			return "", rec, fmt.Errorf("file %s: %w", f.Path, err)
		}
		files[f.Path] = data
	}
	if len(rec.Files) == 0 {
		return "", rec, nil
	}
	files[migrationFile], _ = json.Marshal(rec) // strings and ints: it cannot fail
	meta := pkg.Metadata
	meta.ID = ""
	to, err := a.Ingest(meta, files)
	return to, rec, err
}

// load opens the archive at path: a directory archive, or the image file an
// earlier build wrote, read into memory.
func load(path string) (*archive.Archive, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if fi.IsDir() {
		return archive.Open(path)
	}
	image, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return archive.ReadImage(image)
}

// buildDemoCapsule assembles a complete capsule: a Z→µµ reference run, the
// matching Les Houches record, environment manifest, and provenance.
func buildDemoCapsule(seed uint64, events int) *core.Capsule {
	run, err := rivet.NewRun("DASPOS_2013_ZMUMU")
	if err != nil {
		log.Fatal(err)
	}
	g := generator.NewDrellYanZ(generator.DefaultConfig(seed))
	for i := 0; i < events; i++ {
		if err := run.Process(g.Generate()); err != nil {
			log.Fatal(err)
		}
	}
	if err := run.Finalize(); err != nil {
		log.Fatal(err)
	}
	ref, err := run.ExportYODA()
	if err != nil {
		log.Fatal(err)
	}
	reg := envcapture.StandardRegistry()
	_, cur, _ := envcapture.StandardPlatforms()
	env, err := envcapture.Capture(reg, "zmumu", cur, envcapture.PkgRef{Name: "rivet-lite", Version: "1.2"})
	if err != nil {
		log.Fatal(err)
	}
	prov := provenance.NewStore()
	root, err := prov.Add(provenance.Record{
		Output:   provenance.Artifact{Name: "mc.zmumu", Tier: "HEPMC", Events: events},
		Producer: provenance.Producer{Step: "generation", Software: "daspos-generator", Version: "2.0"},
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := prov.Add(provenance.Record{
		Output:   provenance.Artifact{Name: "zmumu.reference", Tier: "L1", Bytes: int64(len(ref))},
		Producer: provenance.Producer{Step: "rivet-run", Software: "rivet-lite", Version: "1.2"},
		Parents:  []string{root},
	}); err != nil {
		log.Fatal(err)
	}
	return &core.Capsule{
		Title:         "Z lineshape capsule",
		Creator:       "DASPOS",
		Description:   "Preserved Z->mumu lineshape measurement with reference data",
		ConditionsTag: "mc-v1",
		Analysis: &leshouches.AnalysisRecord{
			Name: "GPD_2013_ZMUMU",
			Objects: []leshouches.ObjectDefinition{
				{Name: "mu", Type: datamodel.ObjMuon, MinPt: 20, MaxAbsEta: 2.4},
			},
			Selection: []leshouches.Cut{
				{Variable: "count:mu", Op: ">=", Value: 2},
				{Variable: "os_pair:mu", Op: "==", Value: 1},
				{Variable: "inv_mass:mu", Op: ">", Value: 60},
			},
			Background:     120,
			ObservedEvents: 118,
		},
		Reference:   ref,
		Environment: env,
		Provenance:  prov,
	}
}
