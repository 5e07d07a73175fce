package generator

import (
	"io"
	"math"
	"testing"

	"daspos/internal/fourvec"
	"daspos/internal/hepmc"
	"daspos/internal/units"
)

func allProcesses() []int {
	return []int{ProcMinBias, ProcQCDDijet, ProcDrellYanZ, ProcWLepNu,
		ProcHiggsDiphoton, ProcDZero, ProcV0, ProcZPrime}
}

func TestNewKnowsAllProcesses(t *testing.T) {
	cfg := DefaultConfig(1)
	for _, id := range allProcesses() {
		g, err := New(id, cfg)
		if err != nil {
			t.Fatalf("process %d: %v", id, err)
		}
		if g.ProcessID() != id {
			t.Fatalf("process id mismatch: %d vs %d", g.ProcessID(), id)
		}
		if g.Name() != ProcessName(id) {
			t.Fatalf("name mismatch for %d", id)
		}
	}
	if _, err := New(999, cfg); err == nil {
		t.Fatal("unknown process accepted")
	}
}

func TestAllProcessesProduceValidGraphs(t *testing.T) {
	cfg := DefaultConfig(7)
	for _, id := range allProcesses() {
		g, _ := New(id, cfg)
		for i := 0; i < 50; i++ {
			e := g.Generate()
			if err := e.Validate(); err != nil {
				t.Fatalf("%s event %d: %v", g.Name(), i, err)
			}
			if len(e.FinalState()) == 0 {
				t.Fatalf("%s: empty final state", g.Name())
			}
			// Beams are always the first two particles.
			if e.Particles[0].Status != hepmc.StatusBeam || e.Particles[1].Status != hepmc.StatusBeam {
				t.Fatalf("%s: beams missing", g.Name())
			}
		}
	}
}

func TestDeterministicStreams(t *testing.T) {
	cfg := DefaultConfig(42)
	g1, _ := New(ProcDrellYanZ, cfg)
	g2, _ := New(ProcDrellYanZ, cfg)
	for i := 0; i < 20; i++ {
		a, b := g1.Generate(), g2.Generate()
		if len(a.Particles) != len(b.Particles) {
			t.Fatalf("event %d: graph sizes differ", i)
		}
		for j := range a.Particles {
			if a.Particles[j] != b.Particles[j] {
				t.Fatalf("event %d particle %d differs", i, j)
			}
		}
	}
}

func TestProcessesHaveIndependentStreams(t *testing.T) {
	cfg := DefaultConfig(42)
	z, _ := New(ProcDrellYanZ, cfg)
	w, _ := New(ProcWLepNu, cfg)
	ez, ew := z.Generate(), w.Generate()
	// Same seed, different process: primary vertices must differ.
	if ez.Vertices[0].Z == ew.Vertices[0].Z {
		t.Fatal("processes share RNG streams")
	}
}

func TestZMassPeak(t *testing.T) {
	g := NewDrellYanZ(DefaultConfig(3))
	var masses []float64
	for i := 0; i < 2000; i++ {
		e := g.Generate()
		var leps []fourvec.Vec
		for _, p := range e.FinalState() {
			if abs(p.PDG) == units.PDGMuon || abs(p.PDG) == units.PDGElectron {
				leps = append(leps, p.P)
			}
		}
		if len(leps) != 2 {
			t.Fatalf("event %d: %d leptons", i, len(leps))
		}
		masses = append(masses, fourvec.InvariantMass(leps[0], leps[1]))
	}
	med := median(masses)
	if math.Abs(med-91.19) > 0.5 {
		t.Fatalf("Z mass median %v", med)
	}
}

func TestZLeptonFlavourMix(t *testing.T) {
	g := NewDrellYanZ(DefaultConfig(4))
	ee := 0
	const n = 1000
	for i := 0; i < n; i++ {
		e := g.Generate()
		for _, p := range e.FinalState() {
			if p.PDG == units.PDGElectron {
				ee++
				break
			}
		}
	}
	frac := float64(ee) / n
	if math.Abs(frac-0.5) > 0.06 {
		t.Fatalf("electron fraction %v", frac)
	}
}

func TestWHasNeutrinoAndMissingPt(t *testing.T) {
	g := NewWLepNu(DefaultConfig(5))
	for i := 0; i < 200; i++ {
		e := g.Generate()
		pt, _ := e.MissingPt()
		if pt <= 0 {
			t.Fatalf("event %d: no missing pt", i)
		}
		// Lepton + neutrino must reconstruct near the W mass.
		var lep, nu fourvec.Vec
		found := 0
		for _, p := range e.FinalState() {
			switch {
			case units.IsNeutrino(p.PDG):
				nu = p.P
				found++
			case abs(p.PDG) == units.PDGMuon || abs(p.PDG) == units.PDGElectron:
				if p.P.Pt() > 5 {
					lep = p.P
					found++
				}
			}
		}
		if found < 2 {
			t.Fatalf("event %d: lepton or neutrino missing", i)
		}
		m := fourvec.InvariantMass(lep, nu)
		if m < 50 || m > 120 {
			t.Fatalf("event %d: lep-nu mass %v", i, m)
		}
	}
}

func TestWChargeConservation(t *testing.T) {
	g := NewWLepNu(DefaultConfig(6))
	for i := 0; i < 300; i++ {
		e := g.Generate()
		var w *hepmc.Particle
		for j := range e.Particles {
			if abs(e.Particles[j].PDG) == units.PDGW {
				w = &e.Particles[j]
			}
		}
		if w == nil {
			t.Fatal("no W in event")
		}
		var q float64
		for _, c := range e.Children(w.Barcode) {
			q += units.Charge(c.PDG)
		}
		if math.Abs(q-units.Charge(w.PDG)) > 1e-9 {
			t.Fatalf("event %d: W charge %v, decay charge %v", i, units.Charge(w.PDG), q)
		}
	}
}

func TestHiggsDiphotonMass(t *testing.T) {
	g := NewHiggsDiphoton(DefaultConfig(8))
	var masses []float64
	for i := 0; i < 500; i++ {
		e := g.Generate()
		// The soft underlying event emits no photons in this process, so
		// the only photons present are the Higgs daughters.
		var gams []fourvec.Vec
		for _, p := range e.FinalState() {
			if p.PDG == units.PDGPhoton {
				gams = append(gams, p.P)
			}
		}
		if len(gams) != 2 {
			t.Fatalf("event %d: %d photons", i, len(gams))
		}
		masses = append(masses, fourvec.InvariantMass(gams[0], gams[1]))
	}
	med := median(masses)
	if math.Abs(med-125.25) > 0.3 {
		t.Fatalf("Higgs mass median %v", med)
	}
}

func TestDZeroDisplacedVertex(t *testing.T) {
	g := NewDZero(DefaultConfig(9))
	sum := 0.0
	const n = 2000
	for i := 0; i < n; i++ {
		e := g.Generate()
		var d *hepmc.Particle
		for j := range e.Particles {
			if abs(e.Particles[j].PDG) == units.PDGDZero {
				d = &e.Particles[j]
			}
		}
		if d == nil || d.EndVertex == 0 {
			t.Fatal("no decayed D0")
		}
		pv, dvtx := e.Vertex(d.ProdVertex), e.Vertex(d.EndVertex)
		dx, dy, dz := dvtx.X-pv.X, dvtx.Y-pv.Y, dvtx.Z-pv.Z
		flight := math.Sqrt(dx*dx + dy*dy + dz*dz)
		// Lab flight = beta*gamma*c*tau_proper; check consistency with the
		// particle's boost for this event's drawn proper time.
		sum += flight / (d.P.Beta() * d.P.Gamma())
	}
	// The mean proper decay length must match c*tau(D0) ≈ 0.123 mm.
	ctau := units.SpeedOfLight * 4.101e-4
	got := sum / n
	if math.Abs(got-ctau)/ctau > 0.1 {
		t.Fatalf("mean proper decay length %v mm, want ~%v", got, ctau)
	}
}

func TestV0MassAndFlight(t *testing.T) {
	g := NewV0(DefaultConfig(10))
	ks, lam := 0, 0
	for i := 0; i < 1000; i++ {
		e := g.Generate()
		var v0 *hepmc.Particle
		for j := range e.Particles {
			if p := &e.Particles[j]; abs(p.PDG) == units.PDGKZeroShort || abs(p.PDG) == units.PDGLambda {
				v0 = p
			}
		}
		if v0 == nil {
			t.Fatal("no V0")
		}
		kids := e.Children(v0.Barcode)
		if len(kids) != 2 {
			t.Fatalf("V0 children: %d", len(kids))
		}
		m := fourvec.InvariantMass(kids[0].P, kids[1].P)
		if math.Abs(m-v0.P.M()) > 1e-6 {
			t.Fatalf("V0 daughters mass %v vs parent %v", m, v0.P.M())
		}
		if abs(v0.PDG) == units.PDGKZeroShort {
			ks++
		} else {
			lam++
		}
	}
	if ks == 0 || lam == 0 {
		t.Fatalf("species mix degenerate: ks=%d lambda=%d", ks, lam)
	}
}

func TestZPrimeMassScales(t *testing.T) {
	for _, mass := range []float64{500, 1500, 3000} {
		g := NewZPrime(DefaultConfig(11), mass)
		var masses []float64
		for i := 0; i < 300; i++ {
			e := g.Generate()
			var mus []fourvec.Vec
			for _, p := range e.FinalState() {
				if abs(p.PDG) == units.PDGMuon && p.P.Pt() > 20 {
					mus = append(mus, p.P)
				}
			}
			if len(mus) >= 2 {
				masses = append(masses, fourvec.InvariantMass(mus[0], mus[1]))
			}
		}
		med := median(masses)
		if math.Abs(med-mass)/mass > 0.05 {
			t.Fatalf("Z'(%v) median mass %v", mass, med)
		}
	}
}

func TestDijetBackToBack(t *testing.T) {
	g := NewQCDDijet(DefaultConfig(12))
	for i := 0; i < 100; i++ {
		e := g.Generate()
		// Sum visible momentum in the transverse plane: dijets roughly
		// balance, so |sum pT| must be well below the scalar sum.
		var sum fourvec.Vec
		scalar := 0.0
		for _, p := range e.FinalState() {
			if units.IsNeutrino(p.PDG) {
				continue
			}
			sum = sum.Add(p.P)
			scalar += p.P.Pt()
		}
		if scalar < 40 {
			t.Fatalf("event %d: too little activity (%v)", i, scalar)
		}
		if sum.Pt() > 0.5*scalar {
			t.Fatalf("event %d: momentum imbalance %v of %v", i, sum.Pt(), scalar)
		}
	}
}

func TestPileupOverlay(t *testing.T) {
	cfg := DefaultConfig(13)
	cfg.PileupMu = 20
	g := NewDrellYanZ(cfg)
	nv, np := 0, 0
	const n = 50
	for i := 0; i < n; i++ {
		e := g.Generate()
		nv += len(e.Vertices)
		np += len(e.FinalState())
	}
	meanV := float64(nv) / n
	if meanV < 15 {
		t.Fatalf("mean vertices %v with mu=20", meanV)
	}
	cfg2 := DefaultConfig(13)
	g2 := NewDrellYanZ(cfg2)
	np2 := 0
	for i := 0; i < n; i++ {
		np2 += len(g2.Generate().FinalState())
	}
	if np <= np2 {
		t.Fatalf("pileup did not add particles: %d vs %d", np, np2)
	}
}

func TestGenerateN(t *testing.T) {
	g := NewMinBias(DefaultConfig(14))
	evts := GenerateN(g, 25)
	if len(evts) != 25 {
		t.Fatalf("got %d events", len(evts))
	}
	for i, e := range evts {
		if e.Number != i {
			t.Fatalf("event numbering broken at %d: %d", i, e.Number)
		}
	}
}

func TestTwoBodyDecayConservation(t *testing.T) {
	g := NewDrellYanZ(DefaultConfig(15))
	parent := fourvec.PtEtaPhiM(37, 0.7, -1.2, 91.2)
	d1, d2 := twoBodyDecay(g.rng, parent, 0.105, 0.105)
	sum := d1.Add(d2)
	if math.Abs(sum.Px-parent.Px) > 1e-9 || math.Abs(sum.E-parent.E) > 1e-9 {
		t.Fatalf("four-momentum not conserved: %v vs %v", sum, parent)
	}
}

func TestTwoBodyDecayClosedPanics(t *testing.T) {
	g := NewDrellYanZ(DefaultConfig(16))
	defer func() {
		if recover() == nil {
			t.Fatal("closed decay did not panic")
		}
	}()
	twoBodyDecay(g.rng, fourvec.PtEtaPhiM(10, 0, 0, 1), 5, 5)
}

func TestProcessNameUnknown(t *testing.T) {
	if ProcessName(12345) != "process(12345)" {
		t.Fatalf("unknown name: %s", ProcessName(12345))
	}
}

func TestProcessIDInvertsProcessName(t *testing.T) {
	for id := ProcMinBias; id <= ProcZPrime; id++ {
		if got := ProcessID(ProcessName(id)); got != id {
			t.Fatalf("ProcessID(%q) = %d, want %d", ProcessName(id), got, id)
		}
	}
	if got := ProcessID("no-such-process"); got != 0 {
		t.Fatalf("unknown name resolved to %d", got)
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

func BenchmarkDrellYanZ(b *testing.B) {
	g := NewDrellYanZ(DefaultConfig(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = g.Generate()
	}
}

func BenchmarkQCDDijet(b *testing.B) {
	g := NewQCDDijet(DefaultConfig(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = g.Generate()
	}
}

func BenchmarkMinBiasWithPileup(b *testing.B) {
	cfg := DefaultConfig(1)
	cfg.PileupMu = 30
	g := NewMinBias(cfg)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = g.Generate()
	}
}

func TestEventSource(t *testing.T) {
	next := EventSource(NewDrellYanZ(DefaultConfig(3)), 5)
	var nums []int
	for {
		ev, err := next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		nums = append(nums, ev.Number)
	}
	if len(nums) != 5 {
		t.Fatalf("source yielded %d events, want 5", len(nums))
	}
	for i, n := range nums {
		if n != i {
			t.Fatalf("event %d has number %d", i, n)
		}
	}
	if _, err := next(); err != io.EOF {
		t.Fatalf("exhausted source returned %v, want io.EOF", err)
	}
}

// TestGenerateAllocatesEachListOnce: once a stream has seen its busiest
// events, a new event is three allocations — the event and its particle and
// vertex lists, each sized from the stream's high-water mark — however many
// particles it holds. Lists grown particle by particle cost about ten.
func TestGenerateAllocatesEachListOnce(t *testing.T) {
	for _, id := range []int{ProcDrellYanZ, ProcQCDDijet} {
		cfg := DefaultConfig(3)
		cfg.PileupMu = 2
		g, _ := New(id, cfg)
		GenerateN(g, 500)
		if got := testing.AllocsPerRun(200, func() { g.Generate() }); got > 3 {
			t.Errorf("%s: %v allocations per event, want 3", ProcessName(id), got)
		}
	}
}
