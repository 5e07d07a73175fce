package outreach

import (
	"math"
	"testing"

	"daspos/internal/generator"
)

func dCandidates(t testing.TB, n int) []DecayCandidate {
	t.Helper()
	g := generator.NewDZero(generator.DefaultConfig(41))
	var out []DecayCandidate
	for i := 0; i < n; i++ {
		out = append(out, ConvertTruth(g.Generate())...)
	}
	return out
}

func v0Candidates(t testing.TB, n int) []DecayCandidate {
	t.Helper()
	g := generator.NewV0(generator.DefaultConfig(42))
	var out []DecayCandidate
	for i := 0; i < n; i++ {
		out = append(out, ConvertTruth(g.Generate())...)
	}
	return out
}

func TestConvertTruthExtractsCandidates(t *testing.T) {
	cands := dCandidates(t, 200)
	if len(cands) < 150 {
		t.Fatalf("D candidates: %d from 200 events", len(cands))
	}
	for _, c := range cands {
		if c.Species != "D0" {
			t.Fatalf("unexpected species %q", c.Species)
		}
		if c.Mass < 1.85 || c.Mass > 1.88 {
			t.Fatalf("D mass %v", c.Mass)
		}
		if c.FlightMM < 0 || c.ProperTimePs < 0 || c.P <= 0 {
			t.Fatalf("bad kinematics: %+v", c)
		}
	}
}

func TestConvertTruthIgnoresPromptProcesses(t *testing.T) {
	g := generator.NewDrellYanZ(generator.DefaultConfig(43))
	for i := 0; i < 50; i++ {
		if cands := ConvertTruth(g.Generate()); len(cands) != 0 {
			t.Fatalf("Z event produced decay candidates: %+v", cands)
		}
	}
}

func TestDLifetimeMasterClass(t *testing.T) {
	mc, ok := DecayMasterClassByName("d-lifetime")
	if !ok {
		t.Fatal("d-lifetime missing")
	}
	res, err := mc.Run(dCandidates(t, 3000))
	if err != nil {
		t.Fatal(err)
	}
	if res.EventsUsed < 2000 {
		t.Fatalf("candidates used: %d", res.EventsUsed)
	}
	// The classroom's estimator is the histogram mean with a truncation
	// bias from the 3 ps ceiling; 20% tolerance around 0.41 ps.
	if math.Abs(res.Estimate-0.41)/0.41 > 0.2 {
		t.Fatalf("lifetime estimate %v ps", res.Estimate)
	}
}

func TestV0FinderMasterClass(t *testing.T) {
	mc, ok := DecayMasterClassByName("v0-finder")
	if !ok {
		t.Fatal("v0-finder missing")
	}
	res, err := mc.Run(v0Candidates(t, 2000))
	if err != nil {
		t.Fatal(err)
	}
	if res.EventsUsed < 1500 {
		t.Fatalf("candidates used: %d", res.EventsUsed)
	}
	// The generator mixes 70% K_S / 30% Lambda: the measured ratio must
	// be near 7/3.
	if math.Abs(res.Estimate-7.0/3)/2.33 > 0.2 {
		t.Fatalf("K_S/Lambda ratio %v", res.Estimate)
	}
}

func TestDecayMasterClassesComplete(t *testing.T) {
	for _, m := range DecayMasterClasses() {
		if m.Run == nil {
			t.Fatalf("incomplete exercise %q", m.Name)
		}
		if _, err := m.Run(nil); err == nil {
			t.Errorf("%s: empty classroom produced a measurement", m.Name)
		}
	}
	if _, ok := DecayMasterClassByName("ghost"); ok {
		t.Fatal("phantom exercise")
	}
}
