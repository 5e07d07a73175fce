package outreach

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"daspos/internal/detector"
)

// The event display: Table 1's first row. RenderSVG draws a simplified
// event in the transverse (x–y) view — detector layers as circles, tracks
// as curved polylines colour-coded by charge, calorimeter deposits as
// radial bars, and the missing-momentum arrow — producing a
// self-contained SVG document any browser shows. This is the common
// display §2.1 argues for: it consumes only the common simplified format
// and the common geometry description.

// displaySizePx is the display's width and height; maxTowers caps the
// calorimeter bars drawn, largest first.
const (
	displaySizePx = 800
	maxTowers     = 64
)

// RenderSVG draws one event over a geometry in the transverse view, under
// a caption naming the geometry, the run and the event.
func RenderSVG(det *detector.Detector, e *SimplifiedEvent) string {
	size := displaySizePx
	// World scale: the outermost calorimeter plus tower headroom maps to
	// the canvas (muon chambers are drawn off-scale at the rim).
	outer := 2200.0
	for _, l := range det.Layers {
		if l.Kind == detector.KindHCal && l.Radius*1.25 > outer {
			outer = l.Radius * 1.25
		}
	}
	half := float64(size) / 2
	px := func(mm float64) float64 { return mm / outer * (half * 0.95) }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="%g %g %d %d">`+"\n",
		size, size, -half, -half, size, size)
	fmt.Fprintf(&b, `<rect x="%g" y="%g" width="%d" height="%d" fill="#0b0e1a"/>`+"\n", -half, -half, size, size)

	// Detector layers: tracker and calorimeter circles.
	for _, l := range det.Layers {
		if !l.Sensitive() && l.Kind != detector.KindBeamPipe {
			continue
		}
		var stroke string
		switch l.Kind {
		case detector.KindBeamPipe:
			stroke = "#333a55"
		case detector.KindPixel, detector.KindStrip:
			stroke = "#27304f"
		case detector.KindECal:
			stroke = "#1f4d3a"
		case detector.KindHCal:
			stroke = "#4d3a1f"
		default:
			continue // muon chambers are beyond the canvas scale
		}
		fmt.Fprintf(&b, `<circle cx="0" cy="0" r="%.1f" fill="none" stroke="%s" stroke-width="1"/>`+"\n",
			px(l.Radius), stroke)
	}

	// Calorimeter towers: radial bars from the calo radius, length ~ ET.
	ecalR, hcalR := 1290.0, 1800.0
	if idx := det.LayersOf(detector.KindECal); len(idx) > 0 {
		ecalR = det.Layer(idx[0]).Radius
	}
	if idx := det.LayersOf(detector.KindHCal); len(idx) > 0 {
		hcalR = det.Layer(idx[0]).Radius
	}
	towers := append([]DisplayTower(nil), e.Towers...)
	sort.Slice(towers, func(i, j int) bool { return towers[i].E > towers[j].E })
	if len(towers) > maxTowers {
		towers = towers[:maxTowers]
	}
	for _, tw := range towers {
		base := hcalR
		color := "#e0a93f"
		if tw.EM {
			base = ecalR
			color = "#46c08a"
		}
		et := tw.E / math.Cosh(tw.Eta)
		length := math.Min(et*12, 0.22*outer)
		x0, y0 := px(base)*math.Cos(tw.Phi), px(base)*math.Sin(tw.Phi)
		x1, y1 := px(base+length)*math.Cos(tw.Phi), px(base+length)*math.Sin(tw.Phi)
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="3"/>`+"\n",
			x0, y0, x1, y1, color)
	}

	// Tracks: polylines through the tracker, colour by charge.
	for _, trk := range e.Tracks {
		color := "#5aa9ff" // negative
		if trk.Charge > 0 {
			color = "#ff5a7a"
		}
		var pts []string
		for _, p := range trk.Points {
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", px(p[0]), px(p[1])))
		}
		width := 1.0
		if trk.Pt > 10 {
			width = 2.5
		}
		fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="%g" opacity="0.85"/>`+"\n",
			strings.Join(pts, " "), color, width)
	}

	// Missing transverse momentum: a dashed arrow from the centre.
	if e.MET.Pt > 1 {
		length := math.Min(e.MET.Pt*20, 0.8*outer)
		x, y := px(length)*math.Cos(e.MET.Phi), px(length)*math.Sin(e.MET.Phi)
		fmt.Fprintf(&b, `<line x1="0" y1="0" x2="%.1f" y2="%.1f" stroke="#f5f1e8" stroke-width="2" stroke-dasharray="6,4"/>`+"\n", x, y)
		fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="4" fill="#f5f1e8"/>`+"\n", x, y)
	}

	caption := fmt.Sprintf("%s  run %d  event %d  (MET %.1f GeV)", det.Name, e.Run, e.Event, e.MET.Pt)
	fmt.Fprintf(&b, `<text x="%g" y="%g" fill="#8892b0" font-family="monospace" font-size="13">%s</text>`+"\n",
		-half+12, half-14, escapeXML(caption))
	b.WriteString("</svg>\n")
	return b.String()
}

func escapeXML(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
