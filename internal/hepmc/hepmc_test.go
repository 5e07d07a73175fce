package hepmc

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"daspos/internal/fourvec"
	"daspos/internal/units"
	"daspos/internal/xrand"
)

// buildZEvent constructs a minimal but complete Z→µµ event graph:
// two beams → primary vertex → Z → decay vertex → µ+µ- (+ a neutrino pair
// variant when withNu is set).
func buildZEvent(n int, withNu bool) *Event {
	e := NewEvent(n, 1)
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

func TestIORoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	var want []*Event
	for i := 0; i < 20; i++ {
		e := buildZEvent(i, i%3 == 0)
		e.Weight = 1.0 / float64(i+1)
		want = append(want, e)
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("event count %d != %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Number != w.Number || g.ProcessID != w.ProcessID || g.Weight != w.Weight {
			t.Fatalf("event %d header mismatch", i)
		}
		if len(g.Particles) != len(w.Particles) || len(g.Vertices) != len(w.Vertices) {
			t.Fatalf("event %d graph size mismatch", i)
		}
		for j := range g.Particles {
			if g.Particles[j] != w.Particles[j] {
				t.Fatalf("event %d particle %d not bit-exact:\n got %+v\nwant %+v",
					i, j, g.Particles[j], w.Particles[j])
			}
		}
		for j := range g.Vertices {
			if g.Vertices[j] != w.Vertices[j] {
				t.Fatalf("event %d vertex %d mismatch", i, j)
			}
		}
	}
}

func TestReaderEOFOnEmpty(t *testing.T) {
	if _, err := NewReader(strings.NewReader("")).Read(); err != io.EOF {
		t.Fatalf("empty stream: %v", err)
	}
	events, err := NewReader(strings.NewReader("")).ReadAll()
	if err != nil || len(events) != 0 {
		t.Fatalf("empty ReadAll: %v %d", err, len(events))
	}
}

func TestReaderRejectsCorruptStreams(t *testing.T) {
	cases := map[string]string{
		"bad magic":       "NOT-HEPMC\n",
		"bad E record":    magic + "\nE 1 2\n",
		"not E":           magic + "\nX 1 2 3 4 5\n",
		"huge counts":     magic + "\nE 1 1 1.0 99999999 0\n",
		"truncated":       magic + "\nE 1 1 1.0 1 0\n",
		"bad vertex":      magic + "\nE 1 1 1.0 1 0\nV -1 x 0 0 0\nEND\n",
		"bad particle":    magic + "\nE 1 1 1.0 0 1\nP 1 13 1 0 0 0 0 0\nEND\n",
		"missing END":     magic + "\nE 1 1 1.0 0 1\nP 1 13 1 0 0 0 1 0 0\n",
		"invalid graph":   magic + "\nE 1 1 1.0 0 1\nP 1 13 2 0 0 0 1 0 0\nEND\n",
		"negative counts": magic + "\nE 1 1 1.0 -1 0\nEND\n",
	}
	for name, in := range cases {
		if _, err := NewReader(strings.NewReader(in)).Read(); err == nil {
			t.Errorf("%s: corrupt stream accepted", name)
		}
	}
}

func TestWeightPrecisionRoundTrip(t *testing.T) {
	e := NewEvent(1, 1)
	e.Weight = 0.1 + 0.2 // not representable exactly; must still round-trip
	e.AddParticle(units.PDGPhoton, StatusFinal, fourvec.PtEtaPhiM(math.Pi, 1.0/3, -2.0/7, 0), 0, 0)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(e); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	g, err := NewReader(&buf).Read()
	if err != nil {
		t.Fatal(err)
	}
	if g.Weight != e.Weight {
		t.Fatalf("weight drifted: %v vs %v", g.Weight, e.Weight)
	}
	if g.Particles[0].P != e.Particles[0].P {
		t.Fatalf("momentum drifted: %v vs %v", g.Particles[0].P, e.Particles[0].P)
	}
}

func BenchmarkWrite(b *testing.B) {
	e := buildZEvent(1, true)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		_ = w.Write(e)
	}
}

func BenchmarkReadWrite(b *testing.B) {
	e := buildZEvent(1, true)
	var ref bytes.Buffer
	w := NewWriter(&ref)
	_ = w.Write(e)
	_ = w.Flush()
	data := ref.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewReader(bytes.NewReader(data)).Read(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestIORoundTripProperty(t *testing.T) {
	// Property: any structurally valid random event round-trips through
	// the wire format bit-exactly.
	rng := xrand.New(77)
	if err := quick.Check(func(nFinal uint8, seedMix uint16) bool {
		e := NewEvent(int(seedMix), 1)
		pv := e.AddVertex(rng.Gauss(0, 0.1), rng.Gauss(0, 0.1), rng.Gauss(0, 40), 0)
		e.AddParticle(units.PDGProton, StatusBeam, fourvec.PxPyPzE(0, 0, 6500, 6500), 0, pv)
		e.AddParticle(units.PDGProton, StatusBeam, fourvec.PxPyPzE(0, 0, -6500, 6500), 0, pv)
		n := int(nFinal%20) + 1
		for i := 0; i < n; i++ {
			e.AddParticle(units.PDGPiPlus, StatusFinal,
				fourvec.PtEtaPhiM(rng.Exp(5)+0.1, rng.Range(-4, 4), rng.Range(-math.Pi, math.Pi), 0.1396),
				pv, 0)
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.Write(e); err != nil {
			return false
		}
		if err := w.Flush(); err != nil {
			return false
		}
		got, err := NewReader(&buf).Read()
		if err != nil {
			return false
		}
		if len(got.Particles) != len(e.Particles) || len(got.Vertices) != len(e.Vertices) {
			return false
		}
		for i := range got.Particles {
			if got.Particles[i] != e.Particles[i] {
				return false
			}
		}
		for i := range got.Vertices {
			if got.Vertices[i] != e.Vertices[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
