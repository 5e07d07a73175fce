package reco

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"daspos/internal/conditions"
	"daspos/internal/datamodel"
	"daspos/internal/detector"
	"daspos/internal/fourvec"
	"daspos/internal/generator"
	"daspos/internal/rawdata"
	"daspos/internal/sim"
)

// chain wires generator → full sim → digitizer → reconstructor for tests.
type chain struct {
	det  *detector.Detector
	full *sim.FullSim
	rec  *Reconstructor
	cond Source
}

func newChain(t testing.TB, seed uint64) *chain {
	t.Helper()
	det := detector.Standard()
	db := conditions.NewDB()
	if err := conditions.SeedStandard(db, "t", 1, 10, 10, seed); err != nil {
		t.Fatal(err)
	}
	return &chain{
		det:  det,
		full: sim.NewFullSim(det, seed),
		rec:  New(det),
		cond: db.Snapshot("t", 1),
	}
}

func (c *chain) process(t testing.TB, gen generator.Generator, n int) []*datamodel.Event {
	t.Helper()
	var out []*datamodel.Event
	for i := 0; i < n; i++ {
		raw := rawdata.Digitize(1, c.full.Simulate(gen.Generate()))
		ev, err := c.rec.Reconstruct(raw, c.cond)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ev)
	}
	return out
}

func TestReconstructProducesTracks(t *testing.T) {
	c := newChain(t, 1)
	g := generator.NewQCDDijet(generator.DefaultConfig(1))
	events := c.process(t, g, 10)
	total := 0
	for _, e := range events {
		total += len(e.Tracks)
		if e.Tier != datamodel.TierRECO {
			t.Fatalf("tier %v", e.Tier)
		}
	}
	if total < 20 {
		t.Fatalf("only %d tracks over 10 dijet events", total)
	}
}

func TestTrackMomentumResolution(t *testing.T) {
	// Single clean muons: reconstructed pT must track the true pT.
	c := newChain(t, 2)
	g := generator.NewDrellYanZ(generator.DefaultConfig(2))
	var rel []float64
	for i := 0; i < 60; i++ {
		ev := g.Generate()
		var truePts []float64
		for _, p := range ev.FinalState() {
			if abs(p.PDG) == 13 && math.Abs(p.P.Eta()) < 2.0 && p.P.Pt() > 20 {
				truePts = append(truePts, p.P.Pt())
			}
		}
		raw := rawdata.Digitize(1, c.full.Simulate(ev))
		re, err := c.rec.Reconstruct(raw, c.cond)
		if err != nil {
			t.Fatal(err)
		}
		for _, tp := range truePts {
			best := math.Inf(1)
			for _, trk := range re.Tracks {
				if d := math.Abs(trk.P.Pt()-tp) / tp; d < best {
					best = d
				}
			}
			if !math.IsInf(best, 1) {
				rel = append(rel, best)
			}
		}
	}
	if len(rel) < 20 {
		t.Fatalf("too few matched muon tracks: %d", len(rel))
	}
	good := 0
	for _, d := range rel {
		if d < 0.15 {
			good++
		}
	}
	if frac := float64(good) / float64(len(rel)); frac < 0.7 {
		t.Fatalf("only %.0f%% of muon tracks within 15%% of true pT", 100*frac)
	}
}

func TestMuonCandidatesAndZPeak(t *testing.T) {
	c := newChain(t, 3)
	g := generator.NewDrellYanZ(generator.DefaultConfig(3))
	var masses []float64
	for i := 0; i < 150; i++ {
		raw := rawdata.Digitize(1, c.full.Simulate(g.Generate()))
		re, err := c.rec.Reconstruct(raw, c.cond)
		if err != nil {
			t.Fatal(err)
		}
		mus := re.CandidatesOf(datamodel.ObjMuon)
		var plus, minus []fourvec.Vec
		for _, m := range mus {
			if m.P.Pt() < 15 {
				continue
			}
			if m.Charge > 0 {
				plus = append(plus, m.P)
			} else {
				minus = append(minus, m.P)
			}
		}
		if len(plus) >= 1 && len(minus) >= 1 {
			masses = append(masses, fourvec.InvariantMass(plus[0], minus[0]))
		}
	}
	if len(masses) < 15 {
		t.Fatalf("too few dimuon events reconstructed: %d", len(masses))
	}
	med := median(masses)
	if math.Abs(med-91.2) > 8 {
		t.Fatalf("reconstructed Z peak at %v", med)
	}
}

func TestPhotonCandidatesFromHiggs(t *testing.T) {
	c := newChain(t, 4)
	g := generator.NewHiggsDiphoton(generator.DefaultConfig(4))
	found := 0
	for i := 0; i < 60; i++ {
		raw := rawdata.Digitize(1, c.full.Simulate(g.Generate()))
		re, err := c.rec.Reconstruct(raw, c.cond)
		if err != nil {
			t.Fatal(err)
		}
		phs := re.CandidatesOf(datamodel.ObjPhoton)
		hard := 0
		for _, p := range phs {
			if p.P.Pt() > 20 {
				hard++
			}
		}
		if hard >= 2 {
			found++
		}
	}
	if found < 10 {
		t.Fatalf("diphoton reconstructed in only %d/60 events", found)
	}
}

func TestJetsFromDijets(t *testing.T) {
	c := newChain(t, 5)
	g := generator.NewQCDDijet(generator.DefaultConfig(5))
	njets := 0
	for _, e := range c.process(t, g, 30) {
		njets += len(e.CandidatesOf(datamodel.ObjJet))
	}
	if njets < 20 {
		t.Fatalf("only %d jets over 30 dijet events", njets)
	}
}

func TestVertexFinding(t *testing.T) {
	c := newChain(t, 6)
	g := generator.NewMinBias(generator.DefaultConfig(6))
	withVtx := 0
	for _, e := range c.process(t, g, 30) {
		if _, ok := e.PrimaryVertex(); ok {
			withVtx++
		}
	}
	if withVtx < 15 {
		t.Fatalf("primary vertex found in only %d/30 min-bias events", withVtx)
	}
}

func TestMETInWEvents(t *testing.T) {
	c := newChain(t, 7)
	gW := generator.NewWLepNu(generator.DefaultConfig(7))
	gZ := generator.NewDrellYanZ(generator.DefaultConfig(7))
	metW := median(metValues(t, c, gW, 60))
	metZ := median(metValues(t, c, gZ, 60))
	if metW <= metZ {
		t.Fatalf("W MET (%v) not above Z MET (%v)", metW, metZ)
	}
}

func metValues(t *testing.T, c *chain, g generator.Generator, n int) []float64 {
	t.Helper()
	var out []float64
	for _, e := range c.process(t, g, n) {
		out = append(out, e.Missing.Pt)
	}
	return out
}

func TestConditionsDependenciesEnumerated(t *testing.T) {
	c := newChain(t, 8)
	g := generator.NewMinBias(generator.DefaultConfig(8))
	c.process(t, g, 1)
	touched := c.rec.TouchedFolders()
	want := conditions.StandardFolders()
	if len(touched) != len(want) {
		t.Fatalf("touched %v, want all of %v", touched, want)
	}
	seen := map[string]bool{}
	for _, f := range touched {
		seen[f] = true
	}
	for _, f := range want {
		if !seen[f] {
			t.Fatalf("folder %s not resolved during reconstruction", f)
		}
	}
}

func TestReconstructFailsWithoutConditions(t *testing.T) {
	det := detector.Standard()
	rec := New(det)
	db := conditions.NewDB() // empty: no calibrations published
	g := generator.NewMinBias(generator.DefaultConfig(9))
	fs := sim.NewFullSim(det, 9)
	raw := rawdata.Digitize(1, fs.Simulate(g.Generate()))
	if _, err := rec.Reconstruct(raw, db.Snapshot("t", 1)); err == nil {
		t.Fatal("reconstruction succeeded without calibration constants")
	}
}

func TestServiceAndSnapshotAgree(t *testing.T) {
	det := detector.Standard()
	db := conditions.NewDB()
	if err := conditions.SeedStandard(db, "t", 1, 10, 10, 11); err != nil {
		t.Fatal(err)
	}
	g := generator.NewDrellYanZ(generator.DefaultConfig(11))
	fs := sim.NewFullSim(det, 11)
	raw := rawdata.Digitize(1, fs.Simulate(g.Generate()))
	recA := New(det)
	recB := New(det)
	a, err := recA.Reconstruct(raw, db.Snapshot("t", 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := recB.Reconstruct(raw, db.View("t", 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Tracks) != len(b.Tracks) || len(a.Candidates) != len(b.Candidates) {
		t.Fatal("snapshot and service reconstructions differ")
	}
	if a.Missing.Pt != b.Missing.Pt {
		t.Fatal("MET differs between access modes")
	}
}

func TestReconstructionDeterministic(t *testing.T) {
	c := newChain(t, 12)
	g := generator.NewQCDDijet(generator.DefaultConfig(12))
	raw := rawdata.Digitize(1, c.full.Simulate(g.Generate()))
	a, err := c.rec.Reconstruct(raw, c.cond)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.rec.Reconstruct(raw, c.cond)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Tracks) != len(b.Tracks) {
		t.Fatal("track finding not deterministic")
	}
	for i := range a.Tracks {
		if a.Tracks[i] != b.Tracks[i] {
			t.Fatalf("track %d differs between runs", i)
		}
	}
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}

func BenchmarkReconstructDijet(b *testing.B) {
	c := newChain(b, 1)
	g := generator.NewQCDDijet(generator.DefaultConfig(1))
	raws := make([]*rawdata.Event, 16)
	for i := range raws {
		raws[i] = rawdata.Digitize(1, c.full.Simulate(g.Generate()))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.rec.Reconstruct(raws[i%len(raws)], c.cond); err != nil {
			b.Fatal(err)
		}
	}
}

func TestParallelStageMatchesSequential(t *testing.T) {
	// Per-worker Reconstructors over the same geometry and snapshot must
	// reproduce the single-instance sequential pass exactly.
	c := newChain(t, 31)
	g := generator.NewDrellYanZ(generator.DefaultConfig(31))
	var raws []*rawdata.Event
	for i := 0; i < 8; i++ {
		raws = append(raws, rawdata.Digitize(1, c.full.SimulateSeeded(g.Generate())))
	}
	var want []*datamodel.Event
	for _, raw := range raws {
		ev, err := c.rec.Reconstruct(raw, c.cond)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, ev)
	}
	factory := ParallelStage(c.det, DefaultConfig(), c.cond)
	for w := 0; w < 3; w++ {
		fn := factory(w)
		// Walk the sample backwards: instance state must not couple events.
		for i := len(raws) - 1; i >= 0; i-- {
			got, keep, err := fn(raws[i])
			if err != nil || !keep {
				t.Fatalf("worker %d event %d: keep=%v err=%v", w, i, keep, err)
			}
			if len(got.Tracks) != len(want[i].Tracks) ||
				len(got.Clusters) != len(want[i].Clusters) ||
				len(got.Candidates) != len(want[i].Candidates) ||
				got.Missing != want[i].Missing {
				t.Fatalf("worker %d event %d: parallel stage differs from sequential", w, i)
			}
		}
	}
}

func TestFoldersMatchTouched(t *testing.T) {
	c := newChain(t, 32)
	g := generator.NewMinBias(generator.DefaultConfig(32))
	raw := rawdata.Digitize(1, c.full.Simulate(g.Generate()))
	if _, err := c.rec.Reconstruct(raw, c.cond); err != nil {
		t.Fatal(err)
	}
	touched := c.rec.TouchedFolders()
	static := Folders()
	if len(touched) != len(static) {
		t.Fatalf("Folders() lists %d folders, Reconstruct touched %d", len(static), len(touched))
	}
	for i := range static {
		if static[i] != touched[i] {
			t.Fatalf("folder %d: static %q vs touched %q", i, static[i], touched[i])
		}
	}
}

func TestReconstructAllocs(t *testing.T) {
	c := newChain(t, 1)
	g := generator.NewQCDDijet(generator.DefaultConfig(1))
	raws := make([]*rawdata.Event, 16)
	for i := range raws {
		raws[i] = rawdata.Digitize(1, c.full.Simulate(g.Generate()))
	}
	i := 0
	next := func() {
		if _, err := c.rec.Reconstruct(raws[i%len(raws)], c.cond); err != nil {
			t.Fatal(err)
		}
		i++
	}
	// Two passes over the sample bring every scratch slice to its working
	// size; after that a call allocates what it returns and nothing else:
	// the event and its track, vertex, cluster and candidate slices.
	for range 2 * len(raws) {
		next()
	}
	if got := testing.AllocsPerRun(4*len(raws), next); got > 5 {
		t.Fatalf("Reconstruct: %v allocations per event on a warm reconstructor, want at most 5", got)
	}
}

// TestCaloTablesMatchPerCellGeometry holds the calorimeter tables to the
// per-cell expressions they replaced — atan2, log, tan, cosh, cos and sin
// written out here as unpackCells and computeMET had them — for every
// (layer, iphi, iz) of the standard detector, bit for bit, and for words no
// table covers: a tracker channel in a calorimeter bank, and indices off
// the calorimeter's grid.
func TestCaloTablesMatchPerCellGeometry(t *testing.T) {
	det := detector.Standard()
	r := New(det)
	raw := &rawdata.Event{Banks: []rawdata.Bank{{Partition: rawdata.PartECal}, {Partition: rawdata.PartHCal}}}
	ecal, hcal := det.LayersOf(detector.KindECal)[0], det.LayersOf(detector.KindHCal)[0]
	for bank, li := range []int{ecal, hcal} {
		l := det.Layer(li)
		words := &raw.Banks[bank].Words
		for iphi := 0; iphi < l.NPhi; iphi++ {
			for iz := 0; iz < l.NZ; iz++ {
				*words = append(*words, rawdata.Word{Channel: detector.MakeChannelID(li, iphi, iz), ADC: 50})
			}
		}
		*words = append(*words,
			rawdata.Word{Channel: detector.MakeChannelID(li, l.NPhi, l.NZ), ADC: 50},     // just off the grid
			rawdata.Word{Channel: detector.MakeChannelID(li, 1<<14-1, 1<<12-1), ADC: 50}, // as far off as a word can say
			rawdata.Word{Channel: detector.MakeChannelID(li, 3, l.NZ+7), ADC: 50},        // off in z alone
			rawdata.Word{Channel: detector.MakeChannelID(4, 15999, 511), ADC: 50},        // a strip channel
			rawdata.Word{Channel: detector.MakeChannelID(0, 0, 0), ADC: 50},              // the beam pipe, which has no cells
		)
	}
	cells := r.unpackCells(raw, 1, 1)
	if want := len(raw.Banks[0].Words) + len(raw.Banks[1].Words); len(cells) != want {
		t.Fatalf("unpacked %d cells of %d words", len(cells), want)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, c := range cells {
		l := det.Layer(c.layer)
		phi, z := l.CellCenter(c.iphi, c.iz)
		theta := math.Atan2(l.Radius, z)
		eta := -math.Log(math.Tan(theta / 2))
		if !same(c.eta, eta) || !same(c.phi, phi) ||
			!same(c.coshEta, math.Cosh(eta)) || !same(c.cosPhi, math.Cos(phi)) || !same(c.sinPhi, math.Sin(phi)) {
			t.Fatalf("layer %d iphi %d iz %d: cell carries η %v φ %v cosh %v cos %v sin %v, the expressions give η %v φ %v cosh %v cos %v sin %v",
				c.layer, c.iphi, c.iz, c.eta, c.phi, c.coshEta, c.cosPhi, c.sinPhi,
				eta, phi, math.Cosh(eta), math.Cos(phi), math.Sin(phi))
		}
	}
}

// TestWarmReconstructorMatchesFresh drives ONE long-lived Reconstructor
// through a sequence built to leave something behind in its scratch — busy
// pile-up dijets before sparse dimuons, an event of four empty banks and
// one of no banks at all after full ones — and demands of each output what
// a Reconstructor that has seen nothing returns for the same raw event.
func TestWarmReconstructorMatchesFresh(t *testing.T) {
	c := newChain(t, 3)
	busyCfg := generator.DefaultConfig(3)
	busyCfg.PileupMu = 25
	busy := generator.NewQCDDijet(busyCfg)
	sparse := generator.NewZPrime(generator.DefaultConfig(4), 900)
	var raws []*rawdata.Event
	for i := 0; i < 4; i++ {
		raws = append(raws,
			rawdata.Digitize(1, c.full.SimulateSeeded(busy.Generate())),
			rawdata.Digitize(1, c.full.SimulateSeeded(sparse.Generate())),
			rawdata.Digitize(1, &sim.Event{Number: 100 + i}),
			&rawdata.Event{Run: 1, Number: uint64(200 + i)},
		)
	}
	for i, raw := range raws {
		got, err := c.rec.Reconstruct(raw, c.cond)
		if err != nil {
			t.Fatal(err)
		}
		want, err := New(c.det).Reconstruct(raw, c.cond)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("raw event %d (number %d): the warm reconstructor's output differs from a fresh one's:\n warm  %+v\n fresh %+v",
				i, raw.Number, got, want)
		}
	}
}

// missingFolder is a conditions source that has published everything but
// one folder.
type missingFolder struct {
	Source
	folder string
}

func (m missingFolder) Lookup(folder string) (conditions.Payload, error) {
	if folder == m.folder {
		return nil, fmt.Errorf("no payload in %s", folder)
	}
	return m.Source.Lookup(folder)
}

// TestMuonHalfMatchesFullChain: ReconstructMuons returns the tracks and the
// muons of the full chain's event — the muons being the first candidates
// Reconstruct lists, every field equal — and nothing else, on one warm
// reconstructor that alternates the two over dimuons, W decays (half of
// them to electrons), busy pile-up dijets and empty events. Both resolve
// the same folders and fail alike when one is missing.
func TestMuonHalfMatchesFullChain(t *testing.T) {
	c := newChain(t, 5)
	busyCfg := generator.DefaultConfig(5)
	busyCfg.PileupMu = 25
	gens := []generator.Generator{
		generator.NewZPrime(generator.DefaultConfig(6), 1200),
		generator.NewWLepNu(generator.DefaultConfig(7)),
		generator.NewQCDDijet(busyCfg),
	}
	var raws []*rawdata.Event
	for i := 0; i < 8; i++ {
		for _, g := range gens {
			raws = append(raws, rawdata.Digitize(1, c.full.SimulateSeeded(g.Generate())))
		}
	}
	raws = append(raws, rawdata.Digitize(1, &sim.Event{Number: 100}), &rawdata.Event{Run: 1, Number: 200})
	muons, others := 0, 0
	for i, raw := range raws {
		half, err := c.rec.ReconstructMuons(raw, c.cond)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.rec.TouchedFolders(); !reflect.DeepEqual(got, Folders()) {
			t.Fatalf("event %d: the muon half touched %q, want %q", i, got, Folders())
		}
		full, err := c.rec.Reconstruct(raw, c.cond)
		if err != nil {
			t.Fatal(err)
		}
		n := len(half.Candidates)
		want := &datamodel.Event{Run: full.Run, Number: full.Number, Tier: full.Tier, Tracks: full.Tracks,
			Candidates: full.Candidates[:n:n]}
		if n == 0 {
			want.Candidates = nil
		}
		if !reflect.DeepEqual(half, want) {
			t.Fatalf("event %d: the muon half gives\n %+v\nthe full chain's tracks and first %d candidates are\n %+v", i, half, n, want)
		}
		for _, cand := range full.Candidates[n:] {
			if cand.Type == datamodel.ObjMuon {
				t.Fatalf("event %d: the full chain lists a muon the muon half does not: %+v", i, cand)
			}
			others++
		}
		muons += n
	}
	t.Logf("%d events: %d muons, %d other candidates", len(raws), muons, others)
	if muons < 8 || others < 8 {
		t.Fatalf("the sample holds %d muons and %d other candidates: too few to compare", muons, others)
	}
	for _, folder := range Folders() {
		cond := missingFolder{c.cond, folder}
		_, fullErr := c.rec.Reconstruct(raws[0], cond)
		_, halfErr := c.rec.ReconstructMuons(raws[0], cond)
		if fullErr == nil || halfErr == nil || fullErr.Error() != halfErr.Error() {
			t.Fatalf("without %s: Reconstruct fails with %v, ReconstructMuons with %v", folder, fullErr, halfErr)
		}
	}
}
