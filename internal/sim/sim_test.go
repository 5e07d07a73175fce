package sim

import (
	"math"
	"testing"

	"daspos/internal/detector"
	"daspos/internal/fourvec"
	"daspos/internal/generator"
	"daspos/internal/hepmc"
	"daspos/internal/units"
	"daspos/internal/xrand"
)

func TestFullSimTracksLeaveHits(t *testing.T) {
	det := detector.Standard()
	fs := NewFullSim(det, 1)
	g := generator.NewDrellYanZ(generator.DefaultConfig(1))
	for i := 0; i < 20; i++ {
		ev := g.Generate()
		se := fs.Simulate(ev)
		if len(se.TrackerHits) == 0 {
			t.Fatalf("event %d: no tracker hits", i)
		}
		if len(se.Deposits) == 0 {
			t.Fatalf("event %d: no calo deposits", i)
		}
		if se.Number != ev.Number {
			t.Fatal("event identity lost")
		}
	}
}

func TestFullSimMuonsReachMuonSystem(t *testing.T) {
	det := detector.Standard()
	fs := NewFullSim(det, 2)
	g := generator.NewDrellYanZ(generator.DefaultConfig(2))
	muonHits := 0
	for i := 0; i < 50; i++ {
		se := fs.Simulate(g.Generate())
		muonHits += len(se.MuonHits)
	}
	// Half the Z decays are to muons; the central ones must hit the
	// chambers, so the total cannot be tiny.
	if muonHits < 30 {
		t.Fatalf("muon hits over 50 Z events: %d", muonHits)
	}
}

// quietDetector is the standard detector with no noise: every hit it
// records is a particle's.
func quietDetector() *detector.Detector {
	det := detector.Standard()
	for i := range det.Layers {
		det.Layers[i].NoiseOccupancy = 0
	}
	return det
}

func TestFullSimNeutrinosInvisible(t *testing.T) {
	det := quietDetector()
	fs := NewFullSim(det, 3)
	// Hand-build an event with only a neutrino.
	e := hepmc.NewEvent(0)
	pv := e.AddVertex(0, 0, 0, 0)
	e.AddParticle(units.PDGProton, hepmc.StatusBeam, fourvec.PxPyPzE(0, 0, 6500, 6500), 0, pv)
	e.AddParticle(units.PDGProton, hepmc.StatusBeam, fourvec.PxPyPzE(0, 0, -6500, 6500), 0, pv)
	e.AddParticle(units.PDGNuMu, hepmc.StatusFinal, fourvec.PtEtaPhiM(50, 0.5, 1.0, 0), pv, 0)
	se := fs.Simulate(e)
	if len(se.TrackerHits) != 0 {
		t.Fatal("neutrino left a tracker hit")
	}
	for _, d := range se.Deposits {
		if d.Energy > 5 {
			t.Fatalf("neutrino deposited %v GeV", d.Energy)
		}
	}
}

func TestFullSimDisplacedProduction(t *testing.T) {
	det := quietDetector()
	fs := NewFullSim(det, 4)
	// A pion produced at r=300mm (outside pixels and strip1) must have no
	// hits on layers inside its production radius.
	e := hepmc.NewEvent(0)
	pv := e.AddVertex(0, 0, 0, 0)
	e.AddParticle(units.PDGProton, hepmc.StatusBeam, fourvec.PxPyPzE(0, 0, 6500, 6500), 0, pv)
	e.AddParticle(units.PDGProton, hepmc.StatusBeam, fourvec.PxPyPzE(0, 0, -6500, 6500), 0, pv)
	dv := e.AddVertex(300, 0, 10, 1)
	e.AddParticle(units.PDGKZeroShort, hepmc.StatusDecayed, fourvec.PtEtaPhiM(5, 0.1, 0, 0.497), pv, dv)
	e.AddParticle(units.PDGPiPlus, hepmc.StatusFinal, fourvec.PtEtaPhiM(3, 0.1, 0.1, 0.1396), dv, 0)
	e.AddParticle(-units.PDGPiPlus, hepmc.StatusFinal, fourvec.PtEtaPhiM(2, 0.1, -0.1, 0.1396), dv, 0)
	se := fs.Simulate(e)
	for _, h := range se.TrackerHits {
		if r := det.Layers[h.Channel.Layer()].Radius; r < 300 {
			t.Fatalf("hit at r=%v inside production radius", r)
		}
	}
	// But the pions must still hit the outer strip layers.
	if len(se.TrackerHits) == 0 {
		t.Fatal("displaced pions left no hits at all")
	}
}

func TestHelixBendDirection(t *testing.T) {
	det := detector.Standard()
	fs := NewFullSim(det, 5)
	p := fourvec.PtEtaPhiM(10, 0, 0, 0.14)
	kin := kinOf(p, hepmc.Vertex{})
	phiPlus, _, ok1 := fs.helixAt(kin, +1, 500)
	phiMinus, _, ok2 := fs.helixAt(kin, -1, 500)
	if !ok1 || !ok2 {
		t.Fatal("10 GeV track did not reach 500mm")
	}
	if !(phiPlus < 0 && phiMinus > 0) {
		t.Fatalf("bend directions: q+ %v, q- %v", phiPlus, phiMinus)
	}
	if math.Abs(phiPlus+phiMinus) > 1e-12 {
		t.Fatalf("bends not symmetric: %v vs %v", phiPlus, phiMinus)
	}
}

func TestHelixLowPtLooper(t *testing.T) {
	det := detector.Standard()
	fs := NewFullSim(det, 6)
	// pT = 0.2 GeV: rho = 0.2/(0.3*3.8)*1000 ≈ 175mm, max reach 2ρ=350mm.
	p := fourvec.PtEtaPhiM(0.2, 0, 0, 0.14)
	if _, _, ok := fs.helixAt(kinOf(p, hepmc.Vertex{}), 1, 1290); ok {
		t.Fatal("looper reported reaching the ECal")
	}
	if _, _, ok := fs.helixAt(kinOf(p, hepmc.Vertex{}), 1, 102); !ok {
		t.Fatal("0.2 GeV track failed to reach pix3")
	}
}

func TestHelixHighPtNearlyStraight(t *testing.T) {
	det := detector.Standard()
	fs := NewFullSim(det, 7)
	p := fourvec.PtEtaPhiM(500, 0.3, 1.0, 0)
	phi, z, ok := fs.helixAt(kinOf(p, hepmc.Vertex{}), 1, 1290)
	if !ok {
		t.Fatal("500 GeV track did not reach ECal")
	}
	if math.Abs(phi-1.0) > 0.01 {
		t.Fatalf("500 GeV track bent too much: %v", phi)
	}
	wantZ := 1290 * math.Sinh(0.3)
	if math.Abs(z-wantZ)/wantZ > 0.02 {
		t.Fatalf("z at ECal %v want ~%v", z, wantZ)
	}
}

func TestNoiseHitsPresent(t *testing.T) {
	det := detector.Standard()
	fs := NewFullSim(det, 8)
	e := hepmc.NewEvent(0)
	pv := e.AddVertex(0, 0, 0, 0)
	e.AddParticle(units.PDGProton, hepmc.StatusBeam, fourvec.PxPyPzE(0, 0, 6500, 6500), 0, pv)
	e.AddParticle(units.PDGProton, hepmc.StatusBeam, fourvec.PxPyPzE(0, 0, -6500, 6500), 0, pv)
	// Empty detector: everything recorded is noise.
	noise := 0
	for i := 0; i < 20; i++ {
		se := fs.Simulate(e)
		noise += len(se.TrackerHits) + len(se.Deposits) + len(se.MuonHits)
	}
	if noise == 0 {
		t.Fatal("no noise generated across 20 empty events")
	}
}

func TestCaloEnergyRoughlyConserved(t *testing.T) {
	det := detector.Standard()
	fs := NewFullSim(det, 9)
	g := generator.NewHiggsDiphoton(generator.DefaultConfig(9))
	var sumTrue, sumDep float64
	for i := 0; i < 100; i++ {
		ev := g.Generate()
		var central float64
		for _, p := range ev.FinalState() {
			if !units.IsNeutrino(p.PDG) && math.Abs(p.P.Eta()) < 1.2 {
				central += p.P.E
			}
		}
		se := fs.Simulate(ev)
		var dep float64
		for _, d := range se.Deposits {
			dep += d.Energy
		}
		sumTrue += central
		sumDep += dep
	}
	// Deposits include forward particles and noise, and lose loopers; the
	// totals must agree to within a factor ~2.
	ratio := sumDep / sumTrue
	if ratio < 0.5 || ratio > 2.5 {
		t.Fatalf("calo response ratio %v", ratio)
	}
}

func TestFastSimEfficiencyAndSmearing(t *testing.T) {
	fsim := NewFastSim(10)
	g := generator.NewDrellYanZ(generator.DefaultConfig(10))
	kept, total := 0, 0
	var relShift []float64
	for i := 0; i < 300; i++ {
		ev := g.Generate()
		// Simulate smears these particles in this order.
		for _, p := range ev.FinalState() {
			if units.IsNeutrino(p.PDG) || math.Abs(p.P.Eta()) > 2.5 {
				continue
			}
			total++
			if o, ok := fsim.smear(p); ok {
				kept++
				relShift = append(relShift, (o.P.Pt()-p.P.Pt())/p.P.Pt())
			}
		}
	}
	eff := float64(kept) / float64(total)
	if eff < 0.5 || eff > 0.99 {
		t.Fatalf("fastsim efficiency %v implausible", eff)
	}
	// The smearing must be unbiased at the few-percent level.
	mean := 0.0
	for _, r := range relShift {
		mean += r
	}
	mean /= float64(len(relShift))
	if math.Abs(mean) > 0.02 {
		t.Fatalf("smearing bias %v", mean)
	}
}

func TestFastSimAcceptanceCut(t *testing.T) {
	fsim := NewFastSim(11)
	e := hepmc.NewEvent(0)
	pv := e.AddVertex(0, 0, 0, 0)
	e.AddParticle(units.PDGProton, hepmc.StatusBeam, fourvec.PxPyPzE(0, 0, 6500, 6500), 0, pv)
	e.AddParticle(units.PDGProton, hepmc.StatusBeam, fourvec.PxPyPzE(0, 0, -6500, 6500), 0, pv)
	e.AddParticle(units.PDGMuon, hepmc.StatusFinal, fourvec.PtEtaPhiM(50, 4.0, 0, 0.105), pv, 0)
	if objs := fsim.Simulate(e); len(objs) != 0 {
		t.Fatalf("forward muon survived acceptance: %d objects", len(objs))
	}
}

func TestFastSimMissingPt(t *testing.T) {
	objs := []FastObject{
		{PDG: units.PDGMuon, P: fourvec.PtEtaPhiM(40, 0, 0, 0.105)},
	}
	pt, phi := MissingPt(objs)
	if math.Abs(pt-40) > 1e-9 {
		t.Fatalf("missing pt %v", pt)
	}
	if math.Abs(math.Abs(phi)-math.Pi) > 1e-9 {
		t.Fatalf("missing phi %v", phi)
	}
}

func TestFullVsFastCostOrdering(t *testing.T) {
	// The architectural claim behind experiment R1: full simulation
	// produces far more output objects (hits) than fast simulation for
	// the same events.
	det := detector.Standard()
	full := NewFullSim(det, 12)
	fast := NewFastSim(12)
	g := generator.NewQCDDijet(generator.DefaultConfig(12))
	nFull, nFast := 0, 0
	for i := 0; i < 20; i++ {
		ev := g.Generate()
		se := full.Simulate(ev)
		nFull += len(se.TrackerHits) + len(se.Deposits) + len(se.MuonHits)
		nFast += len(fast.Simulate(ev))
	}
	if nFull < 5*nFast {
		t.Fatalf("full sim output (%d) not ≫ fast sim output (%d)", nFull, nFast)
	}
}

func BenchmarkFullSimDijet(b *testing.B) {
	det := detector.Standard()
	fs := NewFullSim(det, 1)
	g := generator.NewQCDDijet(generator.DefaultConfig(1))
	events := generator.GenerateN(g, 64)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = fs.Simulate(events[i%len(events)])
	}
}

func BenchmarkFastSimDijet(b *testing.B) {
	fs := NewFastSim(1)
	g := generator.NewQCDDijet(generator.DefaultConfig(1))
	events := generator.GenerateN(g, 64)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = fs.Simulate(events[i%len(events)])
	}
}

// simEventEqual compares two simulated events field by field.
func simEventEqual(a, b *Event) bool {
	if a.Number != b.Number ||
		len(a.TrackerHits) != len(b.TrackerHits) ||
		len(a.MuonHits) != len(b.MuonHits) ||
		len(a.Deposits) != len(b.Deposits) {
		return false
	}
	for i := range a.TrackerHits {
		if a.TrackerHits[i] != b.TrackerHits[i] {
			return false
		}
	}
	for i := range a.MuonHits {
		if a.MuonHits[i] != b.MuonHits[i] {
			return false
		}
	}
	for i := range a.Deposits {
		if a.Deposits[i] != b.Deposits[i] {
			return false
		}
	}
	return true
}

func TestSimulateSeededOrderIndependent(t *testing.T) {
	// SimulateSeeded must be a pure function of the event: simulating the
	// sample forwards, backwards, or twice gives identical responses,
	// which is what lets a worker pool keep a fixed seed reproducible.
	det := detector.Standard()
	g := generator.NewDrellYanZ(generator.DefaultConfig(11))
	var events []*hepmc.Event
	for i := 0; i < 12; i++ {
		events = append(events, g.Generate())
	}

	forward := NewFullSim(det, 99)
	var fwd []*Event
	for _, ev := range events {
		fwd = append(fwd, forward.SimulateSeeded(ev))
	}
	backward := NewFullSim(det, 99)
	for i := len(events) - 1; i >= 0; i-- {
		if !simEventEqual(backward.SimulateSeeded(events[i]), fwd[i]) {
			t.Fatalf("event %d: reversed-order simulation differs", i)
		}
	}
}

func TestSimulateSeededSeedSensitivity(t *testing.T) {
	det := detector.Standard()
	g := generator.NewDrellYanZ(generator.DefaultConfig(12))
	ev := g.Generate()
	a := NewFullSim(det, 1).SimulateSeeded(ev)
	b := NewFullSim(det, 2).SimulateSeeded(ev)
	if simEventEqual(a, b) {
		t.Fatal("different simulation seeds gave identical responses")
	}
}

// TestSimulateIntoMatchesFresh drives ONE reused Event and ONE reused Rand
// through a sequence built to leave something behind: busy pile-up dijets
// before sparse dimuons, a muon event before one with no muon hits, and an
// event with no particles and no vertex after one with both. Every output
// must equal the fresh SimulateSeeded of the same event, beam spot included.
func TestSimulateIntoMatchesFresh(t *testing.T) {
	det := detector.Standard()
	busyCfg := generator.DefaultConfig(5)
	busyCfg.PileupMu = 25
	busy := generator.NewQCDDijet(busyCfg)
	sparse := generator.NewZPrime(generator.DefaultConfig(6), 1200)
	var events []*hepmc.Event
	for i := 0; i < 6; i++ {
		events = append(events, busy.Generate(), sparse.Generate())
		if i%2 == 1 {
			events = append(events, &hepmc.Event{Number: 1000 + i})
		}
	}

	fs := NewFullSim(det, 31)
	var reused Event
	var rng xrand.Rand
	sawMuons, sawNone := false, false
	for i, ev := range events {
		want := fs.SimulateSeeded(ev)
		fs.SimulateSeededInto(&reused, &rng, ev)
		if !simEventEqual(&reused, want) {
			t.Fatalf("event %d (number %d): reused storage gave %d/%d/%d hits/muon hits/deposits, fresh %d/%d/%d — or different ones",
				i, ev.Number, len(reused.TrackerHits), len(reused.MuonHits), len(reused.Deposits),
				len(want.TrackerHits), len(want.MuonHits), len(want.Deposits))
		}
		sawMuons = sawMuons || len(want.MuonHits) > 0
		sawNone = sawNone || (len(want.MuonHits) == 0 && sawMuons)
	}
	if !sawMuons || !sawNone {
		t.Fatal("the sequence never put an event without muon hits after one with them")
	}
	// A warm Event and Rand cost nothing per event.
	ev := events[1]
	if got := testing.AllocsPerRun(20, func() { fs.SimulateSeededInto(&reused, &rng, ev) }); got != 0 {
		t.Fatalf("SimulateSeededInto: %v allocations per event into warm storage, want 0", got)
	}
}

// TestStageFuncRecyclesReleasedEvents runs the sequence of
// TestSimulateIntoMatchesFresh through one StageFunc, releasing each event
// once it has been checked: what the stage returns must equal the fresh
// SimulateSeeded of the same event whatever the recycled event held before
// (under the race detector, whatever the poison wrote over it), and with
// one event out at a time the stage must make only one. An event made any
// other way stays out of the stage's free list.
func TestStageFuncRecyclesReleasedEvents(t *testing.T) {
	det := detector.Standard()
	busyCfg := generator.DefaultConfig(5)
	busyCfg.PileupMu = 25
	busy := generator.NewQCDDijet(busyCfg)
	sparse := generator.NewZPrime(generator.DefaultConfig(6), 1200)
	var events []*hepmc.Event
	for i := 0; i < 6; i++ {
		events = append(events, busy.Generate(), sparse.Generate(), &hepmc.Event{Number: 1000 + i})
	}

	fs := NewFullSim(det, 31)
	stage := fs.StageFunc()
	seen := map[*Event]bool{}
	for i, ev := range events {
		got, keep, err := stage(ev)
		if err != nil || !keep {
			t.Fatalf("event %d: keep %v, err %v", i, keep, err)
		}
		if want := fs.SimulateSeeded(ev); !simEventEqual(got, want) {
			t.Fatalf("event %d (number %d): a recycled event gave %d/%d/%d hits/muon hits/deposits, fresh %d/%d/%d — or different ones",
				i, ev.Number, len(got.TrackerHits), len(got.MuonHits), len(got.Deposits),
				len(want.TrackerHits), len(want.MuonHits), len(want.Deposits))
		}
		seen[got] = true
		Release(got)
	}
	if len(seen) != 1 {
		t.Fatalf("%d events released one at a time came in %d pieces of storage, want 1", len(events), len(seen))
	}
	outsider := fs.SimulateSeeded(events[0])
	Release(outsider)
	if got, _, _ := stage(events[0]); got == outsider {
		t.Fatal("an event SimulateSeeded made came back from the stage's free list")
	}
}
