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
// Usage:
//
//	daspos-archive create -out DIR [-seed S] [-events N]
//	daspos-archive verify -in DIR|IMAGE
//	daspos-archive list -in DIR|IMAGE
package main

import (
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
		log.Fatal("usage: daspos-archive {create|verify|list} [flags]")
	}
	switch os.Args[1] {
	case "create":
		create(os.Stdout, os.Args[2:])
	case "verify", "list":
		inspect(os.Args[1], os.Args[2:])
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
