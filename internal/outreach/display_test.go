package outreach

import (
	"encoding/xml"
	"strings"
	"testing"

	"daspos/internal/detector"
	"daspos/internal/generator"
)

func displayEvent(t *testing.T) (*detector.Detector, *SimplifiedEvent) {
	t.Helper()
	events := recoEvents(t, 8, 1, func(c generator.Config) generator.Generator { return generator.NewDrellYanZ(c) })
	det := detector.Standard()
	return det, NewConverter(det).Convert(events[0])
}

func TestRenderSVGWellFormed(t *testing.T) {
	det, e := displayEvent(t)
	svg := RenderSVG(det, e)
	// Must be parseable XML.
	dec := xml.NewDecoder(strings.NewReader(svg))
	elems := 0
	for {
		tok, err := dec.Token()
		if tok == nil {
			break
		}
		if err != nil {
			t.Fatalf("SVG not well-formed: %v", err)
		}
		if _, ok := tok.(xml.StartElement); ok {
			elems++
		}
	}
	if elems < 10 {
		t.Fatalf("suspiciously empty SVG: %d elements", elems)
	}
	for _, want := range []string{"<svg", "polyline", "circle", "run 1"} {
		if !strings.Contains(svg, want) {
			t.Fatalf("SVG missing %q", want)
		}
	}
}

func TestRenderSVGContentScalesWithEvent(t *testing.T) {
	det, e := displayEvent(t)
	full := RenderSVG(det, e)
	empty := RenderSVG(det, &SimplifiedEvent{})
	if len(full) <= len(empty) {
		t.Fatal("event content not rendered")
	}
	if strings.Count(full, "polyline") != len(e.Tracks) {
		t.Fatalf("polylines %d != tracks %d", strings.Count(full, "polyline"), len(e.Tracks))
	}
}

// TestRenderSVGOptions pins the display's two fixed choices: at most 64
// calorimeter bars, the largest first, and a caption that is escaped,
// because it carries the geometry's name.
func TestRenderSVGOptions(t *testing.T) {
	det := detector.Standard()
	det.Name = `A "quoted" <geometry>`
	e := &SimplifiedEvent{Run: 3, Event: 9}
	for i := 0; i < 100; i++ {
		e.Towers = append(e.Towers, DisplayTower{Phi: float64(i) / 16, E: float64(1 + i)})
	}
	capped := RenderSVG(det, e)
	if !strings.Contains(capped, "A &quot;quoted&quot; &lt;geometry&gt;  run 3  event 9") || strings.Contains(capped, "<geometry>") {
		t.Fatal("caption not escaped")
	}
	// Tower cap: 64 tower bars (lines beyond the MET dash), the largest
	// first, so the smallest tower's bar is not drawn.
	if n := strings.Count(capped, "stroke-width=\"3\""); n != 64 {
		t.Fatalf("tower cap: %d bars, want 64", n)
	}
	smallest := RenderSVG(det, &SimplifiedEvent{Towers: e.Towers[:1]})
	bar := smallest[strings.Index(smallest, "<line"):]
	bar = bar[:strings.Index(bar, "\n")]
	if strings.Contains(capped, bar) {
		t.Fatalf("the smallest tower's bar %s was drawn", bar)
	}
	// Must still parse.
	dec := xml.NewDecoder(strings.NewReader(capped))
	for {
		tok, err := dec.Token()
		if tok == nil {
			break
		}
		if err != nil {
			t.Fatalf("capped SVG not well-formed: %v", err)
		}
	}
}

func TestRenderSVGChargeColours(t *testing.T) {
	det := detector.Standard()
	e := &SimplifiedEvent{
		Tracks: []DisplayTrack{
			{Pt: 20, Charge: 1, Points: [][3]float64{{0, 0, 0}, {100, 50, 0}}},
			{Pt: 20, Charge: -1, Points: [][3]float64{{0, 0, 0}, {-100, 50, 0}}},
		},
	}
	svg := RenderSVG(det, e)
	if !strings.Contains(svg, "#ff5a7a") || !strings.Contains(svg, "#5aa9ff") {
		t.Fatal("charge colours missing")
	}
}

func BenchmarkRenderSVG(b *testing.B) {
	events := recoEvents(b, 8, 1, func(c generator.Config) generator.Generator { return generator.NewQCDDijet(c) })
	det := detector.Standard()
	e := NewConverter(det).Convert(events[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = RenderSVG(det, e)
	}
}
