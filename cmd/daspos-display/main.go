// Command daspos-display renders an event display: it runs one event
// through the full chain (generate → simulate → digitize → reconstruct),
// converts it to the simplified Level 2 format, and writes the transverse-
// view SVG — the common event display §2.1 of the report argues the
// experiments could share.
//
// Usage:
//
//	daspos-display [-process name] [-seed S] [-event N] [-out display.svg]
package main

import (
	"flag"
	"fmt"
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
	log.SetPrefix("daspos-display: ")
	process := flag.String("process", "drell-yan-z", "physics process to display")
	seed := flag.Uint64("seed", 7, "generation seed")
	skip := flag.Int("event", 0, "skip this many events before the displayed one")
	out := flag.String("out", "display.svg", "output SVG path")
	size := flag.Int("size", 800, "canvas size in pixels")
	flag.Parse()

	procID := generator.ProcessID(*process)
	if procID == 0 {
		log.Fatalf("unknown process %q", *process)
	}
	gen, err := generator.New(procID, generator.DefaultConfig(*seed))
	if err != nil {
		log.Fatal(err)
	}
	det := detector.Standard()
	db := conditions.NewDB()
	if err := conditions.SeedStandard(db, "display", 1, 10, 10, *seed); err != nil {
		log.Fatal(err)
	}
	full := sim.NewFullSim(det, *seed)
	rec := reco.New(det)
	snap := db.Snapshot("display", 1)

	for i := 0; i < *skip; i++ {
		gen.Generate()
	}
	raw := rawdata.Digitize(1, full.Simulate(gen.Generate()))
	ev, err := rec.Reconstruct(raw, snap)
	if err != nil {
		log.Fatal(err)
	}
	simplified := outreach.NewConverter(det).Convert(ev)
	svg := outreach.RenderSVG(det, simplified, outreach.DisplayOptions{SizePx: *size})
	if err := os.WriteFile(*out, []byte(svg), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s: %d tracks, %d towers, MET %.1f GeV\n",
		*out, len(simplified.Tracks), len(simplified.Towers), simplified.MET.Pt)
}
