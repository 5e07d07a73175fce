// Package hepmc defines the Monte Carlo generator event record — the
// interchange layer the paper identifies as RIVET's input contract ("any
// Monte Carlo output can be juxtaposed with the data, as long as it can
// produce output in HepMC format"). The record lives in memory only: the
// generator hands it to the simulation and to the analyses, and no binary
// writes or reads it as a file.
//
// The record mirrors the HepMC design: an event is a graph of vertices
// connected by particles. Particles carry a PDG code, a status (beam,
// decayed, or final state), and a four-momentum; vertices carry a
// space-time position so decay lengths (the D-lifetime and V0 master
// classes) survive into simulation.
package hepmc

import (
	"fmt"

	"daspos/internal/fourvec"
	"daspos/internal/units"
)

// Particle status codes, following the HepMC/PYTHIA convention subset the
// substrate needs.
const (
	// StatusFinal marks a stable particle that exits the generator and
	// enters the detector simulation.
	StatusFinal = 1
	// StatusDecayed marks a particle that decayed inside the generator.
	StatusDecayed = 2
	// StatusBeam marks an incoming beam particle.
	StatusBeam = 4
)

// Particle is one edge of the event graph.
type Particle struct {
	// Barcode is the particle's unique, 1-based identifier within the
	// event; 0 is reserved for "no particle".
	Barcode int
	PDG     int
	Status  int
	P       fourvec.Vec
	// ProdVertex and EndVertex are vertex barcodes (negative by HepMC
	// convention); 0 means none (beams have no production vertex, final
	// particles no end vertex).
	ProdVertex int
	EndVertex  int
}

// IsFinal reports whether the particle reaches the detector.
func (p Particle) IsFinal() bool { return p.Status == StatusFinal }

// Vertex is one node of the event graph, at position (X, Y, Z) mm and time
// T ns relative to the nominal interaction point.
type Vertex struct {
	// Barcode is the vertex's unique, negative identifier within the event.
	Barcode    int
	X, Y, Z, T float64
}

// Event is a complete generator event: the basic logical unit of data in
// particle physics (paper §3.1).
type Event struct {
	// Number is the sequential event number within a run.
	Number int
	// Weight is the event weight; 1 for unweighted generation.
	Weight float64
	// Particles and Vertices hold the event graph. Particle barcodes are
	// 1-based indices into Particles; vertex barcodes are negative, with
	// vertex -k at Vertices[k-1].
	Particles []Particle
	Vertices  []Vertex
}

// NewEvent returns an empty event with unit weight.
func NewEvent(number int) *Event {
	return &Event{Number: number, Weight: 1}
}

// AddVertex appends a vertex and returns its (negative) barcode.
func (e *Event) AddVertex(x, y, z, t float64) int {
	bc := -(len(e.Vertices) + 1)
	e.Vertices = append(e.Vertices, Vertex{Barcode: bc, X: x, Y: y, Z: z, T: t})
	return bc
}

// AddParticle appends a particle and returns its (positive) barcode.
func (e *Event) AddParticle(pdg, status int, p fourvec.Vec, prodVtx, endVtx int) int {
	bc := len(e.Particles) + 1
	e.Particles = append(e.Particles, Particle{
		Barcode: bc, PDG: pdg, Status: status, P: p,
		ProdVertex: prodVtx, EndVertex: endVtx,
	})
	return bc
}

// Particle returns the particle with the given barcode, or nil.
func (e *Event) Particle(barcode int) *Particle {
	if barcode < 1 || barcode > len(e.Particles) {
		return nil
	}
	return &e.Particles[barcode-1]
}

// Vertex returns the vertex with the given (negative) barcode, or nil.
func (e *Event) Vertex(barcode int) *Vertex {
	idx := -barcode - 1
	if barcode >= 0 || idx >= len(e.Vertices) {
		return nil
	}
	return &e.Vertices[idx]
}

// FinalState returns the stable particles of the event, the input to truth-
// level (RIVET-style) analyses and to the detector simulation.
func (e *Event) FinalState() []Particle {
	var out []Particle
	for _, p := range e.Particles {
		if p.IsFinal() {
			out = append(out, p)
		}
	}
	return out
}

// MissingPt returns the magnitude and azimuth of the missing transverse
// momentum implied by the invisible final state.
func (e *Event) MissingPt() (pt, phi float64) {
	var sum fourvec.Vec
	for _, p := range e.Particles {
		if p.IsFinal() && units.IsNeutrino(p.PDG) {
			sum = sum.Add(p.P)
		}
	}
	return sum.Pt(), sum.Phi()
}

// Children returns the particles produced at the given particle's end
// vertex. A final-state particle has none.
func (e *Event) Children(barcode int) []Particle {
	p := e.Particle(barcode)
	if p == nil || p.EndVertex == 0 {
		return nil
	}
	var out []Particle
	for _, q := range e.Particles {
		if q.ProdVertex == p.EndVertex {
			out = append(out, q)
		}
	}
	return out
}

// Validate checks the structural invariants of the event graph: barcodes
// consistent with storage order, vertex references resolvable, and decayed
// particles possessing an end vertex. It returns nil if the event is sound.
func (e *Event) Validate() error {
	for i, p := range e.Particles {
		if p.Barcode != i+1 {
			return &GraphError{e.Number, "particle barcode out of order"}
		}
		if p.ProdVertex != 0 && e.Vertex(p.ProdVertex) == nil {
			return &GraphError{e.Number, "dangling production vertex"}
		}
		if p.EndVertex != 0 && e.Vertex(p.EndVertex) == nil {
			return &GraphError{e.Number, "dangling end vertex"}
		}
		if p.Status == StatusDecayed && p.EndVertex == 0 {
			return &GraphError{e.Number, "decayed particle without end vertex"}
		}
		if p.Status == StatusFinal && p.EndVertex != 0 {
			return &GraphError{e.Number, "final particle with end vertex"}
		}
	}
	for i, v := range e.Vertices {
		if v.Barcode != -(i + 1) {
			return &GraphError{e.Number, "vertex barcode out of order"}
		}
	}
	return nil
}

// GraphError reports a structural defect in an event graph.
type GraphError struct {
	Event int
	Msg   string
}

func (e *GraphError) Error() string {
	return fmt.Sprintf("hepmc: event %d: %s", e.Event, e.Msg)
}
