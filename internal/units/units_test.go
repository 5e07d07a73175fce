package units

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// nameOf is the species name for a code (the placeholder for unknown ones).
func nameOf(pdg int) string {
	p, _ := Lookup(pdg)
	return p.Name
}

// knownCodes lists every code in the table, in a fixed order.
func knownCodes() []int {
	out := make([]int, 0, len(table))
	for code := range table {
		out = append(out, code)
	}
	sort.Ints(out)
	return out
}

func TestLookupKnown(t *testing.T) {
	p, ok := Lookup(PDGMuon)
	if !ok {
		t.Fatal("muon not found")
	}
	if p.Name != "mu-" || p.Charge != -1 {
		t.Fatalf("muon record: %+v", p)
	}
}

func TestLookupAntiparticle(t *testing.T) {
	p, ok := Lookup(-PDGMuon)
	if !ok {
		t.Fatal("anti-muon not found")
	}
	if p.Charge != 1 {
		t.Fatalf("anti-muon charge: %v", p.Charge)
	}
	if p.Name != "mu+" {
		t.Fatalf("anti-muon name: %v", p.Name)
	}
}

func TestLookupUnknown(t *testing.T) {
	p, ok := Lookup(999999)
	if ok {
		t.Fatal("unknown code reported as known")
	}
	if p.Name == "" {
		t.Fatal("unknown code must still get a placeholder name")
	}
}

func TestAntiNameConventions(t *testing.T) {
	cases := map[int]string{
		-PDGElectron: "e+",
		-PDGPiPlus:   "pi-",
		-PDGProton:   "p~",
		-PDGW:        "W-",
	}
	for code, want := range cases {
		if got := nameOf(code); got != want {
			t.Errorf("nameOf(%d)=%q want %q", code, got, want)
		}
	}
}

func TestChargeConjugationIsOdd(t *testing.T) {
	if err := quick.Check(func(idx uint8) bool {
		codes := knownCodes()
		code := codes[int(idx)%len(codes)]
		return Charge(code) == -Charge(-code)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMassIsChargeConjugationEven(t *testing.T) {
	for _, code := range knownCodes() {
		if Mass(code) != Mass(-code) {
			t.Errorf("mass of %d differs from antiparticle", code)
		}
	}
}

// TestMassAndChargeMatchLookup: Mass and Charge read the table without
// Lookup, and must answer what Lookup's record says for every code, an
// antiparticle's or an unknown one's included, without allocating.
func TestMassAndChargeMatchLookup(t *testing.T) {
	codes := []int{0, 7, 99, -99, 1 << 40, -(1 << 40), math.MinInt, math.MaxInt}
	for _, code := range knownCodes() {
		codes = append(codes, code, -code)
	}
	for _, code := range codes {
		p, _ := Lookup(code)
		if Mass(code) != p.Mass || Charge(code) != p.Charge {
			t.Errorf("code %d: Mass %v and Charge %v, Lookup says %v and %v", code, Mass(code), Charge(code), p.Mass, p.Charge)
		}
	}
	if got := testing.AllocsPerRun(100, func() { _ = Mass(-PDGPiPlus) + Charge(-PDGPiPlus) }); got != 0 {
		t.Errorf("Mass and Charge of an antiparticle: %v allocations, want 0", got)
	}
}

func TestNeutrinosInvisibleAndNeutral(t *testing.T) {
	for _, code := range []int{PDGNuE, PDGNuMu, PDGNuTau, -PDGNuE, -PDGNuMu, -PDGNuTau} {
		if !IsNeutrino(code) {
			t.Errorf("%d not flagged as neutrino", code)
		}
		if IsCharged(code) {
			t.Errorf("neutrino %d flagged as charged", code)
		}
	}
	if IsNeutrino(PDGMuon) {
		t.Error("muon flagged as neutrino")
	}
}

func TestPhysicalMassOrdering(t *testing.T) {
	// Sanity anchors: the table must encode real PDG ordering, since the
	// master-class exercises reconstruct these resonances.
	if !(Mass(PDGZ) > Mass(PDGW)) {
		t.Error("mZ must exceed mW")
	}
	if !(Mass(PDGHiggs) > Mass(PDGZ)) {
		t.Error("mH must exceed mZ")
	}
	if !(Mass(PDGDZero) > Mass(PDGKPlus)) {
		t.Error("mD0 must exceed mK+")
	}
	if Mass(PDGPhoton) != 0 || Mass(PDGGluon) != 0 {
		t.Error("gauge bosons photon/gluon must be massless")
	}
}

func TestSpeedOfLight(t *testing.T) {
	// c·τ for the K0_S should be ~26.8 mm, a number the V0-finder master
	// class depends on.
	ctau := SpeedOfLight * 0.08954
	if ctau < 26 || ctau > 27.5 {
		t.Fatalf("K0_S ctau = %v mm, expected ~26.8", ctau)
	}
}
