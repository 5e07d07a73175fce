package rivet

import (
	"math"
	"testing"

	"daspos/internal/core"
	"daspos/internal/fourvec"
	"daspos/internal/generator"
	"daspos/internal/hepmc"
	"daspos/internal/units"
)

func TestRegistryListsBuiltins(t *testing.T) {
	for _, want := range []string{"DASPOS_2013_ZMUMU", "DASPOS_2013_WLNU", "DASPOS_2013_JETS", "DASPOS_2013_DIPHOTON", "DASPOS_2013_MINBIAS"} {
		if _, err := NewAnalysis(want); err != nil {
			t.Fatalf("missing %s: %v", want, err)
		}
	}
}

func TestMetadataComplete(t *testing.T) {
	for name := range registry {
		a, err := NewAnalysis(name)
		if err != nil {
			t.Fatal(err)
		}
		m := a.Metadata()
		if m.Name != name {
			t.Errorf("%s: metadata name %q", name, m.Name)
		}
		if m.Summary == "" || m.Experiment == "" || m.Year == 0 {
			t.Errorf("%s: incomplete metadata %+v", name, m)
		}
	}
}

func TestUnknownAnalysis(t *testing.T) {
	if _, err := NewAnalysis("NOPE"); err == nil {
		t.Fatal("unknown analysis instantiated")
	}
	if _, err := NewRun("NOPE"); err == nil {
		t.Fatal("run with unknown analysis")
	}
	if _, err := NewRun(); err == nil {
		t.Fatal("empty run accepted")
	}
}

func TestDuplicateRegisterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	Register("DASPOS_2013_ZMUMU", func() Analysis { return &zMuMu{} })
}

func TestZMuMuPeak(t *testing.T) {
	run, err := NewRun("DASPOS_2013_ZMUMU")
	if err != nil {
		t.Fatal(err)
	}
	g := generator.NewDrellYanZ(generator.DefaultConfig(1))
	for i := 0; i < 3000; i++ {
		if err := run.Process(g.Generate()); err != nil {
			t.Fatal(err)
		}
	}
	if err := run.Finalize(); err != nil {
		t.Fatal(err)
	}
	hs := run.Histograms()
	if len(hs) != 2 {
		t.Fatalf("histograms: %d", len(hs))
	}
	mass := hs[0]
	if mass.Name != "DASPOS_2013_ZMUMU/m_mumu" {
		t.Fatalf("name %s", mass.Name)
	}
	peak := mass.BinCenter(mass.MaxBin())
	if math.Abs(peak-91.2) > 2 {
		t.Fatalf("Z peak at %v", peak)
	}
	// Events are half μμ: integral per event ~ 0.4-0.6 after /sumW.
	if integ := mass.Integral(); integ < 0.2 || integ > 0.8 {
		t.Fatalf("normalized integral %v", integ)
	}
	if err := run.Finalize(); err == nil {
		t.Fatal("double finalize accepted")
	}
	if err := run.Process(g.Generate()); err == nil {
		t.Fatal("process after finalize accepted")
	}
}

func TestWTransverseMassEndpoint(t *testing.T) {
	run, _ := NewRun("DASPOS_2013_WLNU")
	g := generator.NewWLepNu(generator.DefaultConfig(2))
	for i := 0; i < 3000; i++ {
		_ = run.Process(g.Generate())
	}
	_ = run.Finalize()
	mt := run.Histograms()[0]
	if mt.Entries < 300 {
		t.Fatalf("too few mT entries: %d", mt.Entries)
	}
	// The Jacobian edge: most weight below mW, falling sharply above.
	below, above := 0.0, 0.0
	for i := 0; i < mt.NBins; i++ {
		if mt.BinCenter(i) < 85 {
			below += mt.SumW[i]
		} else {
			above += mt.SumW[i]
		}
	}
	if below < 5*above {
		t.Fatalf("mT endpoint washed out: below=%v above=%v", below, above)
	}
}

func TestJetsSpectrumFalls(t *testing.T) {
	run, _ := NewRun("DASPOS_2013_JETS")
	g := generator.NewQCDDijet(generator.DefaultConfig(3))
	for i := 0; i < 1000; i++ {
		_ = run.Process(g.Generate())
	}
	_ = run.Finalize()
	njets, ptLead := run.Histograms()[0], run.Histograms()[1]
	if njets.Integral() == 0 || ptLead.Integral() == 0 {
		t.Fatal("empty jet histograms")
	}
	// A falling spectrum: first populated decade outweighs the last.
	lo, hi := 0.0, 0.0
	for i := 0; i < ptLead.NBins; i++ {
		if ptLead.BinCenter(i) < 100 {
			lo += ptLead.SumW[i]
		}
		if ptLead.BinCenter(i) > 300 {
			hi += ptLead.SumW[i]
		}
	}
	if lo < 5*hi {
		t.Fatalf("jet spectrum not falling: lo=%v hi=%v", lo, hi)
	}
}

func TestDiphotonPeak(t *testing.T) {
	run, _ := NewRun("DASPOS_2013_DIPHOTON")
	g := generator.NewHiggsDiphoton(generator.DefaultConfig(4))
	for i := 0; i < 1500; i++ {
		_ = run.Process(g.Generate())
	}
	_ = run.Finalize()
	m := run.Histograms()[0]
	peak := m.BinCenter(m.MaxBin())
	if math.Abs(peak-125.25) > 2 {
		t.Fatalf("diphoton peak at %v", peak)
	}
}

func TestMultiAnalysisRun(t *testing.T) {
	run, err := NewRun("DASPOS_2013_MINBIAS", "DASPOS_2013_JETS")
	if err != nil {
		t.Fatal(err)
	}
	g := generator.NewMinBias(generator.DefaultConfig(5))
	for i := 0; i < 200; i++ {
		_ = run.Process(g.Generate())
	}
	_ = run.Finalize()
	if len(run.Histograms()) != 4 {
		t.Fatalf("histograms: %d", len(run.Histograms()))
	}
}

func TestExportValidateRoundTrip(t *testing.T) {
	// The preservation loop: run → export reference → independent re-run →
	// validate against reference.
	runA, _ := NewRun("DASPOS_2013_ZMUMU")
	gA := generator.NewDrellYanZ(generator.DefaultConfig(10))
	for i := 0; i < 4000; i++ {
		_ = runA.Process(gA.Generate())
	}
	_ = runA.Finalize()
	reference, err := runA.ExportYODA()
	if err != nil {
		t.Fatal(err)
	}

	runB, _ := NewRun("DASPOS_2013_ZMUMU")
	gB := generator.NewDrellYanZ(generator.DefaultConfig(99)) // independent sample
	for i := 0; i < 4000; i++ {
		_ = runB.Process(gB.Generate())
	}
	_ = runB.Finalize()
	outcomes, err := validate(runB, reference)
	if err != nil {
		t.Fatal(err)
	}
	if !compatible(outcomes, 0.001) {
		for _, o := range outcomes {
			t.Logf("%s: chi2/ndf=%v p=%v missing=%v", o.Histogram, o.Chi2.Reduced(), o.Chi2.PValue, o.MissingReference)
		}
		t.Fatal("independent rerun not compatible with reference")
	}
}

func TestValidateDetectsWrongPhysics(t *testing.T) {
	runA, _ := NewRun("DASPOS_2013_ZMUMU")
	gA := generator.NewDrellYanZ(generator.DefaultConfig(11))
	for i := 0; i < 3000; i++ {
		_ = runA.Process(gA.Generate())
	}
	_ = runA.Finalize()
	reference, _ := runA.ExportYODA()

	// A Z' at 100 GeV faking the Z sample must fail validation.
	runB, _ := NewRun("DASPOS_2013_ZMUMU")
	gB := generator.NewZPrime(generator.DefaultConfig(12), 100)
	for i := 0; i < 3000; i++ {
		_ = runB.Process(gB.Generate())
	}
	_ = runB.Finalize()
	outcomes, err := validate(runB, reference)
	if err != nil {
		t.Fatal(err)
	}
	if compatible(outcomes, 0.001) {
		t.Fatal("wrong physics passed validation")
	}
}

func TestValidateMissingReference(t *testing.T) {
	run, _ := NewRun("DASPOS_2013_MINBIAS")
	g := generator.NewMinBias(generator.DefaultConfig(13))
	for i := 0; i < 50; i++ {
		_ = run.Process(g.Generate())
	}
	_ = run.Finalize()
	outcomes, err := validate(run, []byte{})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outcomes {
		if !o.MissingReference {
			t.Fatal("missing reference not flagged")
		}
	}
	if compatible(outcomes, 0.05) {
		t.Fatal("missing references counted as compatible")
	}
	if _, err := validate(run, []byte("BEGIN DASPOS_H1D /x\ngarbage\n")); err == nil {
		t.Fatal("corrupt reference accepted")
	}
}

// validate checks a run's histograms against exported reference data the
// way a preserved analysis is re-validated: through the capsule carrying
// that reference.
func validate(run *Run, reference []byte) ([]core.ValidationOutcome, error) {
	return (&core.Capsule{Title: "rivet test", Reference: reference}).ValidateRerun(run.Histograms())
}

// compatible reports whether every outcome has a reference and is
// compatible with it at significance alpha.
func compatible(outcomes []core.ValidationOutcome, alpha float64) bool {
	for _, o := range outcomes {
		if o.MissingReference || !o.Chi2.Compatible(alpha) {
			return false
		}
	}
	return len(outcomes) > 0
}

func TestProjections(t *testing.T) {
	g := generator.NewDrellYanZ(generator.DefaultConfig(14))
	ev := g.Generate()
	all := FinalState{}.Apply(ev)
	cut := FinalState{MinPt: 1, MaxAbsEta: 2.5}.Apply(ev)
	if len(cut) >= len(all) {
		t.Fatal("acceptance cut removed nothing")
	}
	charged := ChargedFinalState{}.Apply(ev)
	for _, p := range charged {
		if !units.IsCharged(p.PDG) {
			t.Fatal("neutral particle in charged final state")
		}
	}
	mus := IdentifiedFinalState{PDGs: []int{units.PDGMuon}}.Apply(ev)
	for _, p := range mus {
		if p.PDG != units.PDGMuon && p.PDG != -units.PDGMuon {
			t.Fatal("non-muon in identified final state")
		}
	}
}

func TestOppositeSignPairs(t *testing.T) {
	g := generator.NewDrellYanZ(generator.DefaultConfig(15))
	found := false
	for i := 0; i < 20 && !found; i++ {
		ev := g.Generate()
		pairs := OppositeSignPairs{PDG: units.PDGMuon, MinPt: 5}.Apply(ev)
		for _, p := range pairs {
			if units.Charge(p.Plus.PDG) <= 0 || units.Charge(p.Minus.PDG) >= 0 {
				t.Fatal("pair charges wrong")
			}
			if m := fourvec.InvariantMass(p.Plus.P, p.Minus.P); m > 60 && m < 120 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no Z-mass pair found in 20 events")
	}
}

func TestConeJetsExcludeMuonsAndNeutrinos(t *testing.T) {
	e := hepmc.NewEvent(0)
	pv := e.AddVertex(0, 0, 0, 0)
	e.AddParticle(units.PDGMuon, hepmc.StatusFinal, vec(50, 0, 0), pv, 0)
	e.AddParticle(units.PDGNuMu, hepmc.StatusFinal, vec(50, 0, 0.1), pv, 0)
	e.AddParticle(units.PDGPiPlus, hepmc.StatusFinal, vec(30, 0, 1.5), pv, 0)
	jets := ConeJets{R: 0.4, MinJetPt: 10}.Apply(e)
	if len(jets) != 1 {
		t.Fatalf("jets: %d", len(jets))
	}
	if math.Abs(jets[0].P.Pt()-30) > 1e-9 {
		t.Fatalf("jet pt %v includes muon or neutrino", jets[0].P.Pt())
	}
}

func vec(pt, eta, phi float64) fourvec.Vec { return fourvec.PtEtaPhiM(pt, eta, phi, 0.1) }

func BenchmarkZMuMuAnalyze(b *testing.B) {
	run, _ := NewRun("DASPOS_2013_ZMUMU")
	g := generator.NewDrellYanZ(generator.DefaultConfig(1))
	events := generator.GenerateN(g, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = run.Process(events[i%len(events)])
	}
}

func BenchmarkConeJets(b *testing.B) {
	g := generator.NewQCDDijet(generator.DefaultConfig(1))
	events := generator.GenerateN(g, 32)
	proj := ConeJets{R: 0.4, MinJetPt: 20}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = proj.Apply(events[i%len(events)])
	}
}
