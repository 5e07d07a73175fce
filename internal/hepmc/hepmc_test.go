package hepmc

import (
	"math"
	"testing"

	"daspos/internal/fourvec"
	"daspos/internal/units"
)

// buildZEvent constructs a minimal but complete Z→µµ event graph:
// two beams → primary vertex → Z → decay vertex → µ+µ- (+ a neutrino pair
// variant when withNu is set).
func buildZEvent(n int, withNu bool) *Event {
	e := NewEvent(n)
	pv := e.AddVertex(0, 0, 0.5, 0)
	b1 := e.AddParticle(units.PDGProton, StatusBeam, fourvec.PxPyPzE(0, 0, 6500, 6500), 0, pv)
	b2 := e.AddParticle(units.PDGProton, StatusBeam, fourvec.PxPyPzE(0, 0, -6500, 6500), 0, pv)
	_ = b1
	_ = b2
	dv := e.AddVertex(0, 0, 0.5, 0)
	e.AddParticle(units.PDGZ, StatusDecayed, fourvec.PtEtaPhiM(20, 0.3, 1.0, 91.2), pv, dv)
	z := e.Particle(3).P
	bx, by, bz := z.BoostVector()
	halfM := z.M() / 2
	mu1 := fourvec.PxPyPzE(halfM, 0, 0, halfM).Boost(bx, by, bz)
	mu2 := fourvec.PxPyPzE(-halfM, 0, 0, halfM).Boost(bx, by, bz)
	e.AddParticle(units.PDGMuon, StatusFinal, mu1, dv, 0)
	e.AddParticle(-units.PDGMuon, StatusFinal, mu2, dv, 0)
	if withNu {
		e.AddParticle(units.PDGNuMu, StatusFinal, fourvec.PtEtaPhiM(30, 1.0, 2.0, 0), pv, 0)
	}
	return e
}

func TestEventConstruction(t *testing.T) {
	e := buildZEvent(1, false)
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(e.Particles) != 5 || len(e.Vertices) != 2 {
		t.Fatalf("graph size: %d particles, %d vertices", len(e.Particles), len(e.Vertices))
	}
	fs := e.FinalState()
	if len(fs) != 2 {
		t.Fatalf("final state size %d", len(fs))
	}
	m := fourvec.InvariantMass(fs[0].P, fs[1].P)
	if math.Abs(m-91.2) > 1e-6 {
		t.Fatalf("dimuon mass %v", m)
	}
}

func TestChildren(t *testing.T) {
	e := buildZEvent(1, false)
	kids := e.Children(3) // the Z
	if len(kids) != 2 {
		t.Fatalf("Z children: %d", len(kids))
	}
	for _, k := range kids {
		if k.PDG != units.PDGMuon && k.PDG != -units.PDGMuon {
			t.Fatalf("unexpected child %d", k.PDG)
		}
	}
	if e.Children(4) != nil {
		t.Fatal("final-state particle has children")
	}
	if e.Children(99) != nil {
		t.Fatal("unknown barcode has children")
	}
}

func TestLookupBounds(t *testing.T) {
	e := buildZEvent(1, false)
	if e.Particle(0) != nil || e.Particle(-1) != nil || e.Particle(100) != nil {
		t.Fatal("out-of-range particle lookup not nil")
	}
	if e.Vertex(0) != nil || e.Vertex(1) != nil || e.Vertex(-100) != nil {
		t.Fatal("out-of-range vertex lookup not nil")
	}
	if e.Vertex(-1) == nil || e.Particle(1) == nil {
		t.Fatal("valid lookups returned nil")
	}
}

func TestMissingPt(t *testing.T) {
	e := buildZEvent(1, true)
	pt, phi := e.MissingPt()
	if math.Abs(pt-30) > 1e-9 {
		t.Fatalf("missing pt %v", pt)
	}
	if math.Abs(phi-2.0) > 1e-9 {
		t.Fatalf("missing phi %v", phi)
	}
}

func TestValidateCatchesDefects(t *testing.T) {
	mk := func(mutate func(*Event)) error {
		e := buildZEvent(1, false)
		mutate(e)
		return e.Validate()
	}
	if err := mk(func(e *Event) { e.Particles[0].ProdVertex = -99 }); err == nil {
		t.Error("dangling production vertex accepted")
	}
	if err := mk(func(e *Event) { e.Particles[2].EndVertex = 0 }); err == nil {
		t.Error("decayed particle without end vertex accepted")
	}
	if err := mk(func(e *Event) { e.Particles[3].EndVertex = -1 }); err == nil {
		t.Error("final particle with end vertex accepted")
	}
	if err := mk(func(e *Event) { e.Particles[0].Barcode = 7 }); err == nil {
		t.Error("barcode disorder accepted")
	}
	if err := mk(func(e *Event) { e.Vertices[0].Barcode = -9 }); err == nil {
		t.Error("vertex barcode disorder accepted")
	}
	var ge *GraphError
	err := mk(func(e *Event) { e.Particles[0].Barcode = 7 })
	if !errorsAs(err, &ge) {
		t.Errorf("error type: %T", err)
	}
}

func errorsAs(err error, target **GraphError) bool {
	ge, ok := err.(*GraphError)
	if ok {
		*target = ge
	}
	return ok
}
