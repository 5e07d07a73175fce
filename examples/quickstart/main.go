// Quickstart: the full DASPOS loop in one file.
//
// Generate Monte Carlo events, run a preserved (RIVET-style) analysis over
// them, archive the result as a capsule with reference data, then — as a
// future user would — load the capsule back from the archive, re-run the
// analysis on an independent sample, and validate the re-run against the
// archived reference.
//
// Run with: go run ./examples/quickstart
// main_test.go pins the whole output against testdata/output.golden.
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"

	"daspos/internal/archive"
	"daspos/internal/core"
	"daspos/internal/datamodel"
	"daspos/internal/generator"
	"daspos/internal/leshouches"
	"daspos/internal/rivet"
)

func main() {
	log.SetFlags(0)
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// 1. Run the preserved analysis over freshly generated events.
	fmt.Fprintln(w, "== 1. original analysis run ==")
	orig, err := rivet.NewRun("DASPOS_2013_ZMUMU")
	if err != nil {
		return err
	}
	gen := generator.NewDrellYanZ(generator.DefaultConfig(1))
	for i := 0; i < 3000; i++ {
		if err := orig.Process(gen.Generate()); err != nil {
			return err
		}
	}
	if err := orig.Finalize(); err != nil {
		return err
	}
	mass := orig.Histograms()[0]
	fmt.Fprintf(w, "dimuon mass peak at %.1f GeV from %d events\n",
		mass.BinCenter(mass.MaxBin()), mass.Entries)

	// 2. Export the reference data and build the capsule.
	fmt.Fprintln(w, "\n== 2. build and archive the capsule ==")
	reference, err := orig.ExportYODA()
	if err != nil {
		return err
	}
	capsule := &core.Capsule{
		Title:       "Quickstart Z capsule",
		Creator:     "you",
		Description: "Z->mumu lineshape preserved by the quickstart example",
		Analysis: &leshouches.AnalysisRecord{
			Name: "QUICKSTART_ZMUMU",
			Objects: []leshouches.ObjectDefinition{
				{Name: "mu", Type: datamodel.ObjMuon, MinPt: 20, MaxAbsEta: 2.4},
			},
			Selection: []leshouches.Cut{
				{Variable: "count:mu", Op: ">=", Value: 2},
				{Variable: "os_pair:mu", Op: "==", Value: 1},
			},
			Background:     100,
			ObservedEvents: 103,
		},
		Reference: reference,
	}
	store := archive.New()
	id, err := capsule.Ingest(store)
	if err != nil {
		return err
	}
	pkg, _ := store.Get(id)
	fmt.Fprintf(w, "archived as package %s (%d payload files)\n", id[:12], len(pkg.Files))

	// 3. Decades later: load the capsule and re-run on independent MC.
	fmt.Fprintln(w, "\n== 3. reload and validate a re-run ==")
	loaded, err := core.FromArchive(store, id)
	if err != nil {
		return err
	}
	rerun, err := rivet.NewRun("DASPOS_2013_ZMUMU")
	if err != nil {
		return err
	}
	gen2 := generator.NewDrellYanZ(generator.DefaultConfig(999)) // independent sample
	for i := 0; i < 3000; i++ {
		if err := rerun.Process(gen2.Generate()); err != nil {
			return err
		}
	}
	if err := rerun.Finalize(); err != nil {
		return err
	}
	outcomes, err := loaded.ValidateRerun(rerun.Histograms())
	if err != nil {
		return err
	}
	allOK := true
	for _, o := range outcomes {
		status := "COMPATIBLE"
		if o.MissingReference {
			status = "NO REFERENCE"
			allOK = false
		} else if !o.Chi2.Compatible(0.01) {
			status = "INCOMPATIBLE"
			allOK = false
		}
		fmt.Fprintf(w, "%-28s chi2/ndf=%.2f p=%.3f  %s\n",
			o.Histogram, o.Chi2.Reduced(), o.Chi2.PValue, status)
	}
	if !allOK {
		return errors.New("validation failed: the preserved analysis did not reproduce")
	}
	fmt.Fprintln(w, "\nthe archived analysis reproduces on independent Monte Carlo ✔")
	return nil
}
