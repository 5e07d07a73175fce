// Command daspos-display renders an event display: it runs one event
// through the full chain (generate → simulate → digitize → reconstruct),
// converts it to the simplified Level 2 format, and writes the transverse-
// view SVG — the common event display §2.1 of the report argues the
// experiments could share. The event is the first Drell-Yan Z of the seed.
//
// Usage:
//
//	daspos-display [-seed S] [-out display.svg]
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
	seed := flag.Uint64("seed", 7, "generation seed")
	out := flag.String("out", "display.svg", "output SVG path")
	flag.Parse()

	gen := generator.NewDrellYanZ(generator.DefaultConfig(*seed))
	det := detector.Standard()
	db := conditions.NewDB()
	if err := conditions.SeedStandard(db, "display", 1, 10, 10, *seed); err != nil {
		log.Fatal(err)
	}
	full := sim.NewFullSim(det, *seed)
	rec := reco.New(det)
	snap := db.Snapshot("display", 1)

	raw := rawdata.Digitize(1, full.Simulate(gen.Generate()))
	ev, err := rec.Reconstruct(raw, snap)
	if err != nil {
		log.Fatal(err)
	}
	simplified := outreach.NewConverter(det).Convert(ev)
	svg := outreach.RenderSVG(det, simplified, outreach.DisplayOptions{})
	if err := os.WriteFile(*out, []byte(svg), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s: %d tracks, %d towers, MET %.1f GeV\n",
		*out, len(simplified.Tracks), len(simplified.Towers), simplified.MET.Pt)
}
