package outreach

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"daspos/internal/conditions"
	"daspos/internal/datamodel"
	"daspos/internal/detector"
	"daspos/internal/generator"
	"daspos/internal/rawdata"
	"daspos/internal/reco"
	"daspos/internal/sim"
)

func TestProfilesMatchTable1(t *testing.T) {
	ps := Profiles()
	if len(ps) != 4 {
		t.Fatalf("profiles: %d", len(ps))
	}
	byName := map[string]Profile{}
	for _, p := range ps {
		byName[p.Experiment] = p
	}
	// Spot-check the load-bearing Table 1 facts.
	if byName["CMS"].DataFormats[0] != "ig" {
		t.Fatal("CMS data format")
	}
	if !strings.Contains(byName["CMS"].SelfDocumenting, "Y") {
		t.Fatal("CMS self-documenting")
	}
	if byName["LHCb"].MasterClasses[0] != "D lifetime" {
		t.Fatal("LHCb master class")
	}
	if byName["Alice"].Comments == "" {
		t.Fatal("Alice comment lost")
	}
	if len(byName["Atlas"].AnalysisTools) != 5 {
		t.Fatalf("Atlas tools: %v", byName["Atlas"].AnalysisTools)
	}
}

func TestTable1Render(t *testing.T) {
	tab := Table1()
	out := tab.String()
	for _, want := range []string{"Alice", "Atlas", "CMS", "LHCb", "iSpy", "HYPATIA", "D lifetime", "Event Display(s)", "Master Class uses"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 1 missing %q:\n%s", want, out)
		}
	}
	if tab.NumRows() != 7 {
		t.Fatalf("rows: %d", tab.NumRows())
	}
}

// recoEvents produces RECO-tier events through the full chain.
func recoEvents(t testing.TB, seed uint64, n int, mk func(generator.Config) generator.Generator) []*datamodel.Event {
	t.Helper()
	det := detector.Standard()
	db := conditions.NewDB()
	if err := conditions.SeedStandard(db, "t", 1, 10, 10, seed); err != nil {
		t.Fatal(err)
	}
	fs := sim.NewFullSim(det, seed)
	rc := reco.New(det)
	snap := db.Snapshot("t", 1)
	g := mk(generator.DefaultConfig(seed))
	var out []*datamodel.Event
	for i := 0; i < n; i++ {
		raw := rawdata.Digitize(1, fs.Simulate(g.Generate()))
		ev, err := rc.Reconstruct(raw, snap)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ev)
	}
	return out
}

func TestConverterProducesDisplayContent(t *testing.T) {
	events := recoEvents(t, 1, 5, func(c generator.Config) generator.Generator { return generator.NewQCDDijet(c) })
	conv := NewConverter(detector.Standard())
	for _, e := range events {
		s := conv.Convert(e)
		if len(s.Tracks) == 0 {
			t.Fatal("no display tracks")
		}
		if len(s.Towers) == 0 {
			t.Fatal("no display towers")
		}
		for _, trk := range s.Tracks {
			if len(trk.Points) != conv.PolylinePoints {
				t.Fatalf("polyline points: %d", len(trk.Points))
			}
			// The polyline starts at the beamline and moves outward.
			first, last := trk.Points[0], trk.Points[len(trk.Points)-1]
			r0 := math.Hypot(first[0], first[1])
			r1 := math.Hypot(last[0], last[1])
			if r0 > 1 || r1 < 100 {
				t.Fatalf("polyline radii: %v .. %v", r0, r1)
			}
		}
	}
}

func TestConvertedSizesAreSmallerThanRECO(t *testing.T) {
	// The Level 2 premise: the simplified format is much lighter than the
	// tier it derives from.
	events := recoEvents(t, 2, 5, func(c generator.Config) generator.Generator { return generator.NewQCDDijet(c) })
	recoSize, err := datamodel.EncodedSize(datamodel.TierRECO, events)
	if err != nil {
		t.Fatal(err)
	}
	conv := NewConverter(detector.Standard())
	var buf bytes.Buffer
	var simpl []*SimplifiedEvent
	for _, e := range events {
		simpl = append(simpl, conv.Convert(e))
	}
	if err := WriteExhibit(&buf, detector.Standard(), simpl); err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) > recoSize {
		t.Fatalf("exhibit (%d) not smaller than RECO (%d)", buf.Len(), recoSize)
	}
}

func TestExhibitRoundTrip(t *testing.T) {
	events := recoEvents(t, 3, 3, func(c generator.Config) generator.Generator { return generator.NewDrellYanZ(c) })
	conv := NewConverter(detector.Standard())
	var simpl []*SimplifiedEvent
	for _, e := range events {
		simpl = append(simpl, conv.Convert(e))
	}
	var buf bytes.Buffer
	if err := WriteExhibit(&buf, detector.Standard(), simpl); err != nil {
		t.Fatal(err)
	}
	det, got, err := ReadExhibit(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if det.Name != "DASPOS-GPD" {
		t.Fatalf("geometry: %s", det.Name)
	}
	if len(got) != len(simpl) {
		t.Fatalf("events: %d", len(got))
	}
	for i := range got {
		if got[i].Event != simpl[i].Event || len(got[i].Tracks) != len(simpl[i].Tracks) {
			t.Fatalf("event %d content changed", i)
		}
	}
}

func TestReadExhibitRejectsBroken(t *testing.T) {
	if _, _, err := ReadExhibit(bytes.NewReader([]byte("not a zip")), 9); err == nil {
		t.Fatal("garbage exhibit opened")
	}
	// A zip without geometry.
	var buf bytes.Buffer
	if err := WriteExhibit(&buf, detector.Standard(), nil); err != nil {
		t.Fatal(err)
	}
	// Remove geometry by writing only events: build manually.
	var noGeo bytes.Buffer
	zw := newZipWithEventOnly(t, &noGeo)
	_ = zw
	if _, _, err := ReadExhibit(bytes.NewReader(noGeo.Bytes()), int64(noGeo.Len())); err == nil {
		t.Fatal("geometry-less exhibit opened")
	}
}

func TestMasterClassRegistry(t *testing.T) {
	mcs := MasterClasses()
	if len(mcs) != 3 {
		t.Fatalf("master classes: %d", len(mcs))
	}
	for _, m := range mcs {
		if m.Documentation == "" || m.Run == nil {
			t.Fatalf("incomplete exercise %q", m.Name)
		}
	}
	if _, ok := MasterClassByName("z-path"); !ok {
		t.Fatal("z-path missing")
	}
	if _, ok := MasterClassByName("nope"); ok {
		t.Fatal("phantom master class")
	}
}

func TestZPathMeasuresZMass(t *testing.T) {
	events := recoEvents(t, 4, 120, func(c generator.Config) generator.Generator { return generator.NewDrellYanZ(c) })
	conv := NewConverter(detector.Standard())
	var simpl []*SimplifiedEvent
	for _, e := range events {
		simpl = append(simpl, conv.Convert(e))
	}
	mc, _ := MasterClassByName("z-path")
	res, err := mc.Run(simpl)
	if err != nil {
		t.Fatal(err)
	}
	if res.EventsUsed < 10 {
		t.Fatalf("too few dimuon events: %d", res.EventsUsed)
	}
	if math.Abs(res.Estimate-91.2) > 5 {
		t.Fatalf("Z mass estimate %v", res.Estimate)
	}
}

func TestHiggsHuntFindsPeak(t *testing.T) {
	events := recoEvents(t, 5, 100, func(c generator.Config) generator.Generator { return generator.NewHiggsDiphoton(c) })
	conv := NewConverter(detector.Standard())
	var simpl []*SimplifiedEvent
	for _, e := range events {
		simpl = append(simpl, conv.Convert(e))
	}
	mc, _ := MasterClassByName("higgs-hunt")
	res, err := mc.Run(simpl)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Estimate-125.25) > 6 {
		t.Fatalf("Higgs estimate %v (events used %d)", res.Estimate, res.EventsUsed)
	}
}

func TestWPathChargeRatio(t *testing.T) {
	events := recoEvents(t, 6, 150, func(c generator.Config) generator.Generator { return generator.NewWLepNu(c) })
	conv := NewConverter(detector.Standard())
	var simpl []*SimplifiedEvent
	for _, e := range events {
		simpl = append(simpl, conv.Convert(e))
	}
	mc, _ := MasterClassByName("w-path")
	res, err := mc.Run(simpl)
	if err != nil {
		t.Fatal(err)
	}
	if res.EventsUsed < 10 {
		t.Fatalf("too few W candidates: %d", res.EventsUsed)
	}
	// The toy generator produces both charges equally; the ratio must be
	// finite and order one.
	if res.Estimate <= 0.2 || res.Estimate > 5 {
		t.Fatalf("charge ratio %v", res.Estimate)
	}
}

func TestMasterClassEmptyInput(t *testing.T) {
	for _, m := range MasterClasses() {
		if _, err := m.Run(nil); err == nil {
			t.Errorf("%s: empty classroom produced a measurement", m.Name)
		}
	}
}

func BenchmarkConvert(b *testing.B) {
	events := recoEvents(b, 1, 8, func(c generator.Config) generator.Generator { return generator.NewQCDDijet(c) })
	conv := NewConverter(detector.Standard())
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = conv.Convert(events[i%len(events)])
	}
}
