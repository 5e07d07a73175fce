package reco

// The track finder this package shipped before the φ index: every seed
// pair scans every hit of every layer, a map and a slice per seed, the
// line refitted from scratch at every layer. It is kept, unchanged but for
// names, as the reference the indexed finder is compared against — on
// hand-built corner cases and under fuzzing — track for track, bit for bit.

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"

	"daspos/internal/datamodel"
	"daspos/internal/detector"
	"daspos/internal/fourvec"
	"daspos/internal/rawdata"
)

type refHit struct {
	layer     int
	r, phi, z float64
	used      bool
}

func refUnpackHits(det *detector.Detector, bank *rawdata.Bank) []refHit {
	var hits []refHit
	for _, w := range bank.Words {
		li := w.Channel.Layer()
		if li < 0 || li >= len(det.Layers) {
			continue
		}
		l := det.Layer(li)
		phi, z := l.CellCenter(w.Channel.IPhi(), w.Channel.IZ())
		hits = append(hits, refHit{layer: li, r: l.Radius, phi: phi, z: z})
	}
	return hits
}

func refFindTracks(det *detector.Detector, cfg Config, hits []refHit) []datamodel.Track {
	var trackerLayers []int
	for i, l := range det.Layers {
		if l.Kind == detector.KindPixel || l.Kind == detector.KindStrip {
			trackerLayers = append(trackerLayers, i)
		}
	}
	if len(trackerLayers) < 3 {
		return nil
	}
	byLayer := make(map[int][]*refHit)
	for i := range hits {
		byLayer[hits[i].layer] = append(byLayer[hits[i].layer], &hits[i])
	}
	seedPairs := [][2]int{
		{trackerLayers[0], trackerLayers[1]},
		{trackerLayers[0], trackerLayers[2]},
		{trackerLayers[1], trackerLayers[2]},
	}
	var tracks []datamodel.Track
	for _, pair := range seedPairs {
		for _, h1 := range byLayer[pair[0]] {
			if h1.used {
				continue
			}
			for _, h2 := range byLayer[pair[1]] {
				if h2.used || h1.used {
					continue
				}
				if collected, ok := refFollowSeed(det, cfg, trackerLayers, byLayer, h1, h2); ok {
					if trk, ok := refFitTrack(det, cfg, collected); ok {
						tracks = append(tracks, trk)
						for _, h := range collected {
							h.used = true
						}
						break
					}
				}
			}
		}
	}
	sort.Slice(tracks, func(i, j int) bool { return tracks[i].P.Pt() > tracks[j].P.Pt() })
	return tracks
}

func refFollowSeed(det *detector.Detector, cfg Config, trackerLayers []int, byLayer map[int][]*refHit, h1, h2 *refHit) ([]*refHit, bool) {
	dr := h2.r - h1.r
	if dr <= 0 {
		return nil, false
	}
	dphi := wrapPhi(h2.phi - h1.phi)
	if math.Abs(dphi/dr) > 0.3*det.BField/(2000*0.8*cfg.MinTrackPt) {
		return nil, false
	}
	collected := []*refHit{h1, h2}
	haveLayer := map[int]bool{h1.layer: true, h2.layer: true}
	for _, li := range trackerLayers {
		if haveLayer[li] {
			continue
		}
		phi0, k, z0, zSlope, ok := refFitLine(collected)
		if !ok {
			return nil, false
		}
		l := det.Layer(li)
		predPhi := phi0 - k*l.Radius
		predZ := z0 + zSlope*l.Radius
		outermost := collected[len(collected)-1].r
		tol := cfg.SeedPhiTolerance * (1 + (l.Radius-outermost)/200)
		var best *refHit
		bestD := tol
		for _, h := range byLayer[li] {
			if h.used {
				continue
			}
			d := math.Abs(wrapPhi(h.phi - predPhi))
			if d < bestD && math.Abs(h.z-predZ) < cfg.SeedZTolerance {
				best, bestD = h, d
			}
		}
		if best != nil {
			collected = append(collected, best)
			haveLayer[li] = true
		}
	}
	if len(collected) < cfg.MinLayers {
		return nil, false
	}
	return collected, true
}

func refFitLine(hs []*refHit) (phi0, k, z0, zSlope float64, ok bool) {
	n := float64(len(hs))
	ref := hs[0].phi
	var sr, srr, sphi, srphi, sz, srz float64
	for _, h := range hs {
		phi := ref + wrapPhi(h.phi-ref)
		sr += h.r
		srr += h.r * h.r
		sphi += phi
		srphi += h.r * phi
		sz += h.z
		srz += h.r * h.z
	}
	det := n*srr - sr*sr
	if det == 0 {
		return 0, 0, 0, 0, false
	}
	slopePhi := (n*srphi - sr*sphi) / det
	phi0 = (sphi*srr - sr*srphi) / det
	k = -slopePhi
	zSlope = (n*srz - sr*sz) / det
	z0 = (sz*srr - sr*srz) / det
	return phi0, k, z0, zSlope, true
}

func refFitTrack(det *detector.Detector, cfg Config, hs []*refHit) (datamodel.Track, bool) {
	phi0, k, z0, zSlope, ok := refFitLine(hs)
	if !ok {
		return datamodel.Track{}, false
	}
	var pt, charge float64
	if math.Abs(k) < 1e-7 {
		pt = 500
		charge = 1
	} else {
		charge = math.Copysign(1, k)
		pt = 0.3 * det.BField / (2000 * math.Abs(k))
	}
	if pt < cfg.MinTrackPt {
		return datamodel.Track{}, false
	}
	if pt > 2000 {
		pt = 2000
	}
	eta := math.Asinh(zSlope)
	p := fourvec.PtEtaPhiM(pt, eta, wrapPhi(phi0), 0.13957)
	var chi2 float64
	for _, h := range hs {
		res := wrapPhi(h.phi - (phi0 - k*h.r))
		chi2 += res * res / (2e-4 * 2e-4)
	}
	return datamodel.Track{
		P: p, Charge: charge, Z0: z0, D0: 0,
		NHits: len(hs), Chi2: chi2 / float64(len(hs)),
	}, true
}

// A track case is what the fuzzer mutates: a byte string of eight-byte
// records, each either one raw channel word or one helix that leaves a hit
// on every tracker layer its mask names, and a word of knobs choosing the
// geometry, the algorithm settings and the order of the bank.
//
//	record, kind even: layer, iphi (2 bytes), iz (2 bytes), extra copies
//	record, kind odd:  φ0 (2 bytes), curvature, z0, dz/dr, layer mask (low 9
//	                   bits) and wobble (high 7 bits), 2 bytes together
//	knobs: bits 0-1 geometry, 2-3 φ tolerance, 4-5 MinLayers, 6-7 bank
//	       order, 8-9 MinTrackPt
type trackCase struct {
	name  string
	data  []byte
	knobs uint32
}

const (
	geomStandard = iota
	geomCoarse   // so few φ cells that every window is the whole layer
	geomTwoLayer // fewer than three tracker layers: no tracking at all
	geomOddPhi   // odd NPhi: a cell centre sits exactly on φ = π
)

const (
	knobTolShift    = 2
	knobLayersShift = 4
	knobOrderShift  = 6
	knobPtShift     = 8

	orderAsBuilt  = 0
	orderSorted   = 1 // by channel, as the event builder emits
	orderReversed = 2
	orderShuffled = 3
)

var fuzzTolerances = [4]float64{0.02, 0.5, 10, 0.001}
var fuzzMinTrackPt = [4]float64{0.3, 0, 1.0, 0.05}

func fuzzDetector(kind uint32) *detector.Detector {
	var d *detector.Detector
	switch kind {
	case geomCoarse:
		d = detector.Standard()
		for i := range d.Layers {
			if d.Layers[i].Sensitive() {
				d.Layers[i].NPhi, d.Layers[i].NZ = 24, 16
			}
		}
	case geomTwoLayer:
		d = detector.Standard()
		d.Layers = append(d.Layers[:3:3], d.Layers[10:]...)
	case geomOddPhi:
		d = detector.Standard()
		for i := range d.Layers {
			if d.Layers[i].Sensitive() {
				d.Layers[i].NPhi = 2*(d.Layers[i].NPhi/16) + 1
			}
		}
	default:
		return detector.Standard()
	}
	if err := d.Validate(); err != nil {
		panic(err)
	}
	return d
}

// decodeTrackCase turns fuzz input into a tracker bank and the settings to
// reconstruct it under.
func decodeTrackCase(data []byte, knobs uint32) (*detector.Detector, Config, *rawdata.Bank) {
	det := fuzzDetector(knobs & 3)
	cfg := DefaultConfig()
	cfg.SeedPhiTolerance = fuzzTolerances[knobs>>knobTolShift&3]
	cfg.MinLayers = 3 + int(knobs>>knobLayersShift&3)
	cfg.MinTrackPt = fuzzMinTrackPt[knobs>>knobPtShift&3]
	tracker := det.TrackerLayers()

	var words []rawdata.Word
	for n := 0; len(data) >= 8 && n < 256; data, n = data[8:], n+1 {
		rec := data[:8]
		if rec[0]%2 == 0 {
			// Layers beyond the detector's and cells beyond a layer's grid
			// are deliberately reachable: a bank read off disk can hold both.
			w := rawdata.Word{ADC: 64, Channel: detector.MakeChannelID(
				int(rec[1])%16,
				int(binary.LittleEndian.Uint16(rec[2:]))&(1<<14-1),
				int(binary.LittleEndian.Uint16(rec[4:]))&(1<<12-1))}
			for c := 0; c <= int(rec[6]&3); c++ {
				words = append(words, w)
			}
			continue
		}
		phi0 := (float64(binary.LittleEndian.Uint16(rec[1:]))/65535*2 - 1) * math.Pi
		k := float64(int8(rec[3])) / 127 * 0.003
		z0 := float64(int8(rec[4])) * 2
		slope := float64(int8(rec[5])) / 32
		mask := binary.LittleEndian.Uint16(rec[6:])
		// The wobble pushes alternate layers' hits off the line by up to
		// 0.03 rad, so candidates land on both sides of a window's edge.
		wobble := float64(mask>>9) / 127 * 0.03
		for i, li := range tracker {
			if mask&(1<<uint(i%9)) == 0 {
				continue
			}
			l := det.Layer(li)
			off := wobble * float64(1-2*(i%2)) / float64(1+i%3)
			if iphi, iz, ok := l.CellOf(phi0-k*l.Radius+off, z0+slope*l.Radius); ok {
				words = append(words, rawdata.Word{ADC: 64, Channel: detector.MakeChannelID(li, iphi, iz)})
			}
		}
	}
	switch knobs >> knobOrderShift & 3 {
	case orderSorted:
		sort.SliceStable(words, func(i, j int) bool { return words[i].Channel < words[j].Channel })
	case orderReversed:
		sort.SliceStable(words, func(i, j int) bool { return words[i].Channel > words[j].Channel })
	case orderShuffled:
		// A fixed permutation, so a failing input replays.
		for i := range words {
			j := (i*7919 + 13) % len(words)
			words[i], words[j] = words[j], words[i]
		}
	}
	return det, cfg, &rawdata.Bank{Partition: rawdata.PartTracker, Words: words}
}

// warmFinders keeps one Reconstructor per geometry alive across cases, so
// every comparison also runs on scratch the previous event left behind.
var warmFinders = map[uint32]*Reconstructor{}

func checkTracksMatchReference(t *testing.T, data []byte, knobs uint32) {
	t.Helper()
	det, cfg, bank := decodeTrackCase(data, knobs)
	want := refFindTracks(det, cfg, refUnpackHits(det, bank))

	r := warmFinders[knobs&3]
	if r == nil {
		r = NewWithConfig(det, cfg)
		warmFinders[knobs&3] = r
	}
	r.cfg = cfg
	got := r.findTracks(r.unpackHits(&r.scrTrackerHits, bank))

	if len(got) != len(want) {
		t.Fatalf("%d tracks, reference finds %d (%d words)", len(got), len(want), len(bank.Words))
	}
	bits := math.Float64bits
	for i := range want {
		g, w := got[i], want[i]
		same := bits(g.P.Px) == bits(w.P.Px) && bits(g.P.Py) == bits(w.P.Py) &&
			bits(g.P.Pz) == bits(w.P.Pz) && bits(g.P.E) == bits(w.P.E) &&
			bits(g.Charge) == bits(w.Charge) && bits(g.D0) == bits(w.D0) &&
			bits(g.Z0) == bits(w.Z0) && g.NHits == w.NHits && bits(g.Chi2) == bits(w.Chi2)
		if !same {
			t.Fatalf("track %d of %d: got %+v, reference %+v", i, len(want), g, w)
		}
	}
}

// helixRecord and wordRecord build the records decodeTrackCase reads.
func helixRecord(phi0 float64, curvature, z0, slope int8, mask uint16) []byte {
	return wobblyHelixRecord(phi0, curvature, z0, slope, mask, 0)
}

func wobblyHelixRecord(phi0 float64, curvature, z0, slope int8, mask uint16, wobble uint8) []byte {
	rec := make([]byte, 8)
	rec[0] = 1
	binary.LittleEndian.PutUint16(rec[1:], uint16(math.Round((phi0/math.Pi+1)/2*65535)))
	rec[3], rec[4], rec[5] = byte(curvature), byte(z0), byte(slope)
	binary.LittleEndian.PutUint16(rec[6:], mask&0x1ff|uint16(wobble&0x7f)<<9)
	return rec
}

func wordRecord(layer, iphi, iz, copies int) []byte {
	rec := make([]byte, 8)
	rec[1] = byte(layer)
	binary.LittleEndian.PutUint16(rec[2:], uint16(iphi))
	binary.LittleEndian.PutUint16(rec[4:], uint16(iz))
	rec[6] = byte(copies)
	return rec
}

func records(recs ...[]byte) []byte {
	var out []byte
	for _, r := range recs {
		out = append(out, r...)
	}
	return out
}

// trackCorners are the cases the index could get wrong, by name. They run
// under plain go test and seed the fuzzer.
func trackCorners() []trackCase {
	const allLayers = 0x1ff
	jet := records(
		helixRecord(0.50, 20, 5, 8, allLayers),
		helixRecord(0.51, -35, 5, 9, allLayers),
		helixRecord(0.49, 3, -4, 7, allLayers),
		helixRecord(0.52, 90, 6, -3, allLayers),
		helixRecord(-2.0, -60, 0, 20, allLayers),
	)
	// A fan of tracks whose hits stray further and further from the line:
	// somewhere along it a hit sits just inside a tolerance window and
	// another just outside.
	var edges []byte
	for i := 0; i < 120; i++ {
		edges = append(edges, wobblyHelixRecord(-3+0.05*float64(i), int8(i%50-25), 0, 3, allLayers, uint8(i))...)
	}
	return []trackCase{
		{name: "sorted bank", data: jet, knobs: orderSorted << knobOrderShift},
		{name: "hits at the edges of the windows", data: edges, knobs: orderSorted << knobOrderShift},
		{name: "hits at the edges of narrow windows", data: edges, knobs: 3<<knobTolShift | orderSorted<<knobOrderShift},
		{name: "bank in reverse channel order", data: jet, knobs: orderReversed << knobOrderShift},
		{name: "shuffled bank", data: jet, knobs: orderShuffled << knobOrderShift},
		{name: "duplicate channels", data: records(
			helixRecord(1.0, 10, 0, 4, allLayers), helixRecord(1.0, 10, 0, 4, allLayers),
			wordRecord(1, 100, 500, 3), wordRecord(2, 100, 500, 3), wordRecord(3, 101, 500, 2),
		)},
		{name: "seam between iphi 0 and NPhi-1", data: records(
			helixRecord(0.0001, 25, 0, 2, allLayers), helixRecord(-0.0001, -25, 0, 2, allLayers),
			wordRecord(1, 0, 512, 0), wordRecord(1, 8191, 512, 0),
			wordRecord(2, 0, 512, 0), wordRecord(2, 8191, 512, 0),
			wordRecord(3, 0, 512, 0), wordRecord(3, 8191, 512, 0),
			wordRecord(4, 0, 256, 0), wordRecord(4, 15999, 256, 0),
			wordRecord(5, 0, 256, 0), wordRecord(5, 15999, 256, 0),
		), knobs: 1 << knobLayersShift},
		{name: "phi near plus and minus pi", data: records(
			helixRecord(math.Pi, 30, 0, 1, allLayers), helixRecord(-math.Pi, -30, 3, 1, allLayers),
			helixRecord(3.1412, 2, -3, 1, allLayers), helixRecord(-3.1412, -2, 0, 1, allLayers),
		), knobs: orderShuffled << knobOrderShift},
		{name: "cell centre exactly at pi", data: records(
			helixRecord(math.Pi, 10, 0, 1, allLayers), helixRecord(3.13, -10, 0, 1, allLayers),
		), knobs: geomOddPhi},
		{name: "tolerance wider than the layer", data: jet, knobs: 2<<knobTolShift | orderShuffled<<knobOrderShift},
		{name: "every window is the whole layer", data: jet, knobs: geomCoarse | 1<<knobTolShift},
		{name: "no curvature limit", data: jet, knobs: 1 << knobPtShift},
		{name: "layers with no hits", data: records(
			helixRecord(0.3, 15, 0, 5, 0b101010111), helixRecord(-1.3, -15, 0, 5, 0b000011111),
			helixRecord(2.3, 40, 0, -5, 0b111110001),
		)},
		{name: "empty bank"},
		{name: "fewer than three tracker layers", data: jet, knobs: geomTwoLayer},
		{name: "cells beyond the grid and layers beyond the detector", data: records(
			helixRecord(0.2, 12, 0, 3, allLayers),
			wordRecord(1, 16383, 4095, 0), wordRecord(2, 9000, 2000, 1), wordRecord(15, 5, 5, 0),
			wordRecord(10, 300, 100, 0), wordRecord(0, 1, 1, 0),
		)},
	}
}

func TestTracksMatchReferenceCorners(t *testing.T) {
	for _, c := range trackCorners() {
		t.Run(c.name, func(t *testing.T) { checkTracksMatchReference(t, c.data, c.knobs) })
	}
}

// TestCornerCasesFindTracks guards the corners against vacuity: the jet the
// ordering cases share must actually reconstruct.
func TestCornerCasesFindTracks(t *testing.T) {
	c := trackCorners()[0]
	det, cfg, bank := decodeTrackCase(c.data, c.knobs)
	if n := len(refFindTracks(det, cfg, refUnpackHits(det, bank))); n < 4 {
		t.Fatalf("the shared jet yields %d tracks; the ordering corners would compare nothing", n)
	}
}

func FuzzTracksMatchReference(f *testing.F) {
	for _, c := range trackCorners() {
		f.Add(c.data, c.knobs)
	}
	f.Fuzz(checkTracksMatchReference)
}
