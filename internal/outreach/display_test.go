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
	svg := RenderSVG(det, e, DisplayOptions{})
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
	full := RenderSVG(det, e, DisplayOptions{})
	empty := RenderSVG(det, &SimplifiedEvent{}, DisplayOptions{})
	if len(full) <= len(empty) {
		t.Fatal("event content not rendered")
	}
	if strings.Count(full, "polyline") != len(e.Tracks) {
		t.Fatalf("polylines %d != tracks %d", strings.Count(full, "polyline"), len(e.Tracks))
	}
}

func TestRenderSVGOptions(t *testing.T) {
	det, e := displayEvent(t)
	capped := RenderSVG(det, e, DisplayOptions{MaxTowers: 2, Caption: `A "quoted" <caption>`})
	if !strings.Contains(capped, "&quot;quoted&quot;") || strings.Contains(capped, "<caption>") {
		t.Fatal("caption not escaped")
	}
	// Tower cap: at most 2 tower bars (lines beyond the MET dash).
	if n := strings.Count(capped, "stroke-width=\"3\""); n > 2 {
		t.Fatalf("tower cap ignored: %d bars", n)
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
	svg := RenderSVG(det, e, DisplayOptions{})
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
		_ = RenderSVG(det, e, DisplayOptions{})
	}
}
