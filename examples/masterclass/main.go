// Masterclass: the outreach path of the paper's §2.1-2.2.
//
// Run collision-like events through the full chain (simulation, raw data,
// reconstruction), convert the RECO output to the simplified Level 2
// format with the common converter, bundle an ig-like exhibit file, and
// run the Z-path master class a student would perform on it. Finishes by
// printing the experiment's Table 1 outreach profile.
//
// Run with: go run ./examples/masterclass
// main_test.go pins the whole output against testdata/output.golden.
package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"os"

	"daspos/internal/conditions"
	"daspos/internal/detector"
	"daspos/internal/generator"
	"daspos/internal/outreach"
	"daspos/internal/rawdata"
	"daspos/internal/reco"
	"daspos/internal/sim"
)

func main() {
	log.SetFlags(0)
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// 1. Produce RECO events through the real chain.
	fmt.Fprintln(w, "== 1. produce the classroom sample ==")
	det := detector.Standard()
	db := conditions.NewDB()
	if err := conditions.SeedStandard(db, "prod", 1, 10, 10, 3); err != nil {
		return err
	}
	full := sim.NewFullSim(det, 3)
	rec := reco.New(det)
	snap := db.Snapshot("prod", 1)
	gen := generator.NewDrellYanZ(generator.DefaultConfig(3))

	conv := outreach.NewConverter(det)
	var sample []*outreach.SimplifiedEvent
	const events = 150
	for i := 0; i < events; i++ {
		raw := rawdata.Digitize(1, full.Simulate(gen.Generate()))
		ev, err := rec.Reconstruct(raw, snap)
		if err != nil {
			return err
		}
		sample = append(sample, conv.Convert(ev))
	}
	fmt.Fprintf(w, "converted %d events to the simplified format\n", len(sample))

	// 2. Bundle the ig-like exhibit (geometry + events in one zip).
	var exhibit bytes.Buffer
	if err := outreach.WriteExhibit(&exhibit, det, sample); err != nil {
		return err
	}
	fmt.Fprintf(w, "exhibit file: %d bytes (geometry + %d events)\n", exhibit.Len(), len(sample))

	// 3. A classroom opens the exhibit and runs the Z path.
	fmt.Fprintln(w, "\n== 2. the classroom runs the Z path ==")
	_, classroomEvents, err := outreach.ReadExhibit(bytes.NewReader(exhibit.Bytes()), int64(exhibit.Len()))
	if err != nil {
		return err
	}
	zpath, ok := outreach.MasterClassByName("z-path")
	if !ok {
		return errors.New("z-path master class missing")
	}
	fmt.Fprintln(w, zpath.Documentation)
	res, err := zpath.Run(classroomEvents)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nevents used: %d\n%s: %.1f\n", res.EventsUsed, res.EstimateLabel, res.Estimate)

	// 4. The LHCb exercise: D lifetime from preprocessed candidates.
	fmt.Fprintln(w, "\n== 3. the LHCb D-lifetime master class ==")
	dgen := generator.NewDZero(generator.DefaultConfig(4))
	var candidates []outreach.DecayCandidate
	for i := 0; i < 2000; i++ {
		candidates = append(candidates, outreach.ConvertTruth(dgen.Generate())...)
	}
	dlife, _ := outreach.DecayMasterClassByName("d-lifetime")
	dres, err := dlife.Run(candidates)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%d candidates -> %s: %.3f (published: 0.410 ps)\n",
		dres.EventsUsed, dres.EstimateLabel, dres.Estimate)

	// 5. The Table 1 context for these exercises.
	fmt.Fprintln(w, "\n== 4. where this sits in the outreach landscape (Table 1) ==")
	fmt.Fprintln(w, outreach.Table1())
	return nil
}
