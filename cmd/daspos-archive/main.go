// Command daspos-archive manages preservation-archive files: create builds
// a demonstration archive containing a fully populated analysis capsule,
// verify runs the fixity audit on an existing archive file — one pass,
// naming each damaged package and file, exit status 1 if there is any —
// and list shows the package catalogue (and refuses a damaged file).
//
// Usage:
//
//	daspos-archive create -out archive.daspos [-seed S] [-events N]
//	daspos-archive verify -in archive.daspos
//	daspos-archive list -in archive.daspos
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

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
		create(os.Args[2:])
	case "verify":
		verify(os.Args[2:])
	case "list":
		list(os.Args[2:])
	default:
		log.Fatalf("unknown subcommand %q", os.Args[1])
	}
}

func create(args []string) {
	fs := flag.NewFlagSet("create", flag.ExitOnError)
	out := fs.String("out", "archive.daspos", "output archive file")
	seed := fs.Uint64("seed", 7, "seed for the demonstration capsule's reference run")
	events := fs.Int("events", 2000, "reference-run statistics")
	_ = fs.Parse(args)

	capsule := buildDemoCapsule(*seed, *events)
	a := archive.New()
	id, err := capsule.Ingest(a)
	if err != nil {
		log.Fatal(err)
	}
	if err := save(a.Persist, *out); err != nil {
		log.Fatal(err)
	}
	st := a.Stats()
	fmt.Printf("created %s: package %s\n", *out, id)
	fmt.Printf("payload %s in %d blobs (compression %.1fx)\n",
		interview.FormatBytes(st.LogicalBytes), st.Blobs, st.CompressionRatio())
}

// save replaces the archive file atomically, with the ledger's discipline:
// the image goes to a temporary file beside it, is fsynced and closed, and
// only then renamed over path; the directory is fsynced so the rename
// itself survives a crash. A write error or a kill mid-save leaves the
// previous archive as it was, and nil means the new one is on disk: a write
// error that surfaces at fsync or close must not be reported as "created".
func save(persist func(io.Writer) error, path string) (err error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close() // a second Close after the checked one is harmless
			os.Remove(tmp)
		}
	}()
	if err := persist(f); err != nil {
		return fmt.Errorf("writing %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("fsync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer dir.Close()
	if err := dir.Sync(); err != nil {
		return fmt.Errorf("fsync %s: %w", dir.Name(), err)
	}
	return nil
}

func verify(args []string) {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	in := fs.String("in", "archive.daspos", "archive file to audit")
	_ = fs.Parse(args)
	if !audit(os.Stdout, open(*in, archive.ReadUnverified)) {
		os.Exit(1)
	}
}

// audit makes the one fixity pass over an archive loaded unverified, prints
// the report — every damaged package with the file that failed and why —
// and reports whether the archive is whole.
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

func list(args []string) {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	in := fs.String("in", "archive.daspos", "archive file to list")
	_ = fs.Parse(args)
	a := open(*in, archive.ReadFrom)
	t := texttable.New("ID", "Title", "Level", "Files", "Bytes")
	t.Title = "Archive catalogue"
	t.SetAlign(3, texttable.Right)
	t.SetAlign(4, texttable.Right)
	for _, meta := range a.List() {
		pkg, _ := a.Get(meta.ID)
		t.AddRow(meta.ID[:12], meta.Title, meta.Level.String(),
			len(pkg.Files), interview.FormatBytes(pkg.TotalBytes()))
	}
	fmt.Println(t)
}

// open loads the archive file at path with read: archive.ReadFrom, which
// refuses a damaged image, or archive.ReadUnverified for the audit.
func open(path string, read func(io.Reader) (*archive.Archive, error)) *archive.Archive {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	a, err := read(f)
	if err != nil {
		log.Fatal(err)
	}
	return a
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
