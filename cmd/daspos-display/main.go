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
	log.SetPrefix("daspos-display: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run parses the flags in args, writes the SVG to -out and reports it on w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("daspos-display", flag.ExitOnError)
	seed := fs.Uint64("seed", 7, "generation seed")
	out := fs.String("out", "display.svg", "output SVG path")
	_ = fs.Parse(args)

	gen := generator.NewDrellYanZ(generator.DefaultConfig(*seed))
	det := detector.Standard()
	db := conditions.NewDB()
	if err := conditions.SeedStandard(db, "display", 1, 10, 10, *seed); err != nil {
		return err
	}
	full := sim.NewFullSim(det, *seed)
	rec := reco.New(det)
	snap := db.Snapshot("display", 1)

	raw := rawdata.Digitize(1, full.Simulate(gen.Generate()))
	ev, err := rec.Reconstruct(raw, snap)
	if err != nil {
		return err
	}
	simplified := outreach.NewConverter(det).Convert(ev)
	svg := outreach.RenderSVG(det, simplified)
	if err := os.WriteFile(*out, []byte(svg), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s: %d tracks, %d towers, MET %.1f GeV\n",
		*out, len(simplified.Tracks), len(simplified.Towers), simplified.MET.Pt)
	return nil
}
