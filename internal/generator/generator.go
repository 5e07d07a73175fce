// Package generator implements the toy Monte Carlo event generators that
// stand in for PYTHIA/HERWIG-class programs in the DASPOS substrate. The
// paper's preservation workflows all start from generated events: RIVET
// consumes them at truth level, RECAST pushes them through full simulation
// and reconstruction, and the outreach master classes are built from the
// same processes (W/Z/Higgs for ATLAS/CMS, D-lifetime for LHCb, V0s for
// ALICE).
//
// The physics is deliberately parametric — Breit–Wigner resonances,
// power-law QCD spectra, exponential decay lengths, simplified
// fragmentation — but every process produces a structurally complete
// HepMC-style event graph with beams, intermediate resonances, displaced
// decay vertices, and a soft underlying event, so the downstream workflow
// code exercises the same code paths as with a real generator.
package generator

import (
	"fmt"
	"io"
	"math"

	"daspos/internal/fourvec"
	"daspos/internal/hepmc"
	"daspos/internal/units"
	"daspos/internal/xrand"
)

// Process identifiers of the generator catalogue.
const (
	ProcMinBias = iota + 1
	ProcQCDDijet
	ProcDrellYanZ
	ProcWLepNu
	ProcHiggsDiphoton
	ProcDZero
	ProcV0
	ProcZPrime
)

// ProcessName returns the catalogue name for a process ID.
func ProcessName(id int) string {
	switch id {
	case ProcMinBias:
		return "minbias"
	case ProcQCDDijet:
		return "qcd-dijet"
	case ProcDrellYanZ:
		return "drell-yan-z"
	case ProcWLepNu:
		return "w-lepnu"
	case ProcHiggsDiphoton:
		return "higgs-diphoton"
	case ProcDZero:
		return "dzero"
	case ProcV0:
		return "v0"
	case ProcZPrime:
		return "zprime"
	default:
		return fmt.Sprintf("process(%d)", id)
	}
}

// ProcessID is the inverse of ProcessName: the ID catalogued under name,
// or 0 when there is none.
func ProcessID(name string) int {
	for id := ProcMinBias; id <= ProcZPrime; id++ {
		if ProcessName(id) == name {
			return id
		}
	}
	return 0
}

// Config holds generator-wide settings. The zero value is not useful; use
// DefaultConfig as a starting point.
type Config struct {
	// Seed determines the full event stream; identical Config values
	// reproduce identical samples on any platform.
	Seed uint64
	// BeamEnergy is the per-beam energy in GeV (6500 for 13 TeV running).
	BeamEnergy float64
	// PileupMu is the mean number of additional soft interactions overlaid
	// on each hard-scatter event. Zero disables pileup.
	PileupMu float64
	// VertexSpreadZ is the Gaussian spread of the primary-vertex z
	// position in mm (the luminous-region length).
	VertexSpreadZ float64
}

// DefaultConfig returns LHC-like running conditions at 13 TeV.
func DefaultConfig(seed uint64) Config {
	return Config{Seed: seed, BeamEnergy: 6500, PileupMu: 0, VertexSpreadZ: 45}
}

// Generator produces a stream of events for one physics process.
type Generator interface {
	// Name returns the process catalogue name.
	Name() string
	// ProcessID returns the process's catalogue identifier.
	ProcessID() int
	// Generate returns the next event in the stream.
	Generate() *hepmc.Event
}

// New constructs the generator for a process ID with the given config. It
// returns an error for unknown processes. Model-dependent processes use
// their default parameters; use the specific constructors to vary them.
func New(process int, cfg Config) (Generator, error) {
	switch process {
	case ProcMinBias:
		return NewMinBias(cfg), nil
	case ProcQCDDijet:
		return NewQCDDijet(cfg), nil
	case ProcDrellYanZ:
		return NewDrellYanZ(cfg), nil
	case ProcWLepNu:
		return NewWLepNu(cfg), nil
	case ProcHiggsDiphoton:
		return NewHiggsDiphoton(cfg), nil
	case ProcDZero:
		return NewDZero(cfg), nil
	case ProcV0:
		return NewV0(cfg), nil
	case ProcZPrime:
		return NewZPrime(cfg, 1000), nil
	default:
		return nil, fmt.Errorf("generator: unknown process %d", process)
	}
}

// base carries the machinery shared by all processes.
type base struct {
	cfg    Config
	rng    *xrand.Rand
	next   int
	procID int
	name   string
	// particles and vertices are the most any event of the stream has
	// held so far: each new event starts with that much room, so its lists
	// are allocated once instead of regrowing particle by particle.
	particles, vertices int
}

func newBase(cfg Config, procID int) base {
	// Mix the process ID into the seed so different processes built from
	// the same Config do not share streams.
	r := xrand.New(cfg.Seed ^ (uint64(procID) * 0x9e3779b97f4a7c15))
	return base{cfg: cfg, rng: r, procID: procID, name: ProcessName(procID)}
}

func (b *base) Name() string   { return b.name }
func (b *base) ProcessID() int { return b.procID }

// newEvent starts an event with beams and a primary vertex, returning the
// event and the primary-vertex barcode.
func (b *base) newEvent() (*hepmc.Event, int) {
	e := hepmc.NewEvent(b.next)
	e.Particles = make([]hepmc.Particle, 0, b.particles)
	e.Vertices = make([]hepmc.Vertex, 0, b.vertices)
	b.next++
	z := b.rng.Gauss(0, b.cfg.VertexSpreadZ)
	pv := e.AddVertex(b.rng.Gauss(0, 0.02), b.rng.Gauss(0, 0.02), z, 0)
	eb := b.cfg.BeamEnergy
	e.AddParticle(units.PDGProton, hepmc.StatusBeam, fourvec.PxPyPzE(0, 0, eb, eb), 0, pv)
	e.AddParticle(units.PDGProton, hepmc.StatusBeam, fourvec.PxPyPzE(0, 0, -eb, eb), 0, pv)
	return e, pv
}

// finish overlays the underlying event and optional pileup, then validates.
func (b *base) finish(e *hepmc.Event, pv int) *hepmc.Event {
	b.addSoftParticles(e, pv, b.rng.Poisson(12), 0.55)
	if b.cfg.PileupMu > 0 {
		n := b.rng.Poisson(b.cfg.PileupMu)
		for i := 0; i < n; i++ {
			z := b.rng.Gauss(0, b.cfg.VertexSpreadZ)
			puv := e.AddVertex(b.rng.Gauss(0, 0.02), b.rng.Gauss(0, 0.02), z, 0)
			b.addSoftParticles(e, puv, b.rng.Poisson(8), 0.5)
		}
	}
	b.particles = max(b.particles, len(e.Particles))
	b.vertices = max(b.vertices, len(e.Vertices))
	if err := e.Validate(); err != nil {
		// A generator that emits an invalid graph is a programming error,
		// not a runtime condition the caller can handle.
		panic(err)
	}
	return e
}

// addSoftParticles attaches n soft charged pions (with a kaon admixture)
// to the given vertex: the generic soft-QCD activity of a pp collision.
func (b *base) addSoftParticles(e *hepmc.Event, vtx int, n int, meanPt float64) {
	for i := 0; i < n; i++ {
		pdg := units.PDGPiPlus
		if b.rng.Bool(0.12) {
			pdg = units.PDGKPlus
		}
		if b.rng.Bool(0.5) {
			pdg = -pdg
		}
		pt := b.rng.Exp(meanPt) + 0.1
		eta := b.rng.Range(-4, 4)
		phi := b.rng.Range(-math.Pi, math.Pi)
		p := fourvec.PtEtaPhiM(pt, eta, phi, units.Mass(pdg))
		e.AddParticle(pdg, hepmc.StatusFinal, p, vtx, 0)
	}
}

// twoBodyDecay decays a parent four-vector into two daughters of masses m1
// and m2, isotropically in the parent rest frame, then boosts to the lab.
// It panics if the decay is kinematically closed (parent mass < m1+m2).
func twoBodyDecay(rng *xrand.Rand, parent fourvec.Vec, m1, m2 float64) (fourvec.Vec, fourvec.Vec) {
	m := parent.M()
	if m < m1+m2 {
		panic(fmt.Sprintf("generator: closed decay: M=%v < %v+%v", m, m1, m2))
	}
	// Momentum of each daughter in the rest frame (Källén function).
	term := (m*m - (m1+m2)*(m1+m2)) * (m*m - (m1-m2)*(m1-m2))
	p := math.Sqrt(term) / (2 * m)
	cosTheta := rng.Range(-1, 1)
	sinTheta := math.Sqrt(1 - cosTheta*cosTheta)
	phi := rng.Range(-math.Pi, math.Pi)
	px := p * sinTheta * math.Cos(phi)
	py := p * sinTheta * math.Sin(phi)
	pz := p * cosTheta
	d1 := fourvec.PxPyPzE(px, py, pz, math.Sqrt(p*p+m1*m1))
	d2 := fourvec.PxPyPzE(-px, -py, -pz, math.Sqrt(p*p+m2*m2))
	bx, by, bz := parent.BoostVector()
	return d1.Boost(bx, by, bz), d2.Boost(bx, by, bz)
}

// decayVertexFor propagates an unstable particle from its production point
// and returns the lab-frame decay position and time, drawn from the
// exponential proper-lifetime distribution. lifetime is the mean proper
// lifetime in ns.
func decayVertexFor(rng *xrand.Rand, p fourvec.Vec, prod hepmc.Vertex, lifetime float64) (x, y, z, t float64) {
	tau := rng.Exp(lifetime) // proper time, ns
	gamma := p.Gamma()
	labT := tau * gamma
	beta := p.Beta()
	dist := beta * units.SpeedOfLight * labT // mm
	pm := p.P()
	if pm == 0 {
		return prod.X, prod.Y, prod.Z, prod.T + labT
	}
	return prod.X + dist*p.Px/pm,
		prod.Y + dist*p.Py/pm,
		prod.Z + dist*p.Pz/pm,
		prod.T + labT
}

// GenerateN runs gen for n events and returns the sample.
func GenerateN(gen Generator, n int) []*hepmc.Event {
	out := make([]*hepmc.Event, n)
	for i := range out {
		out[i] = gen.Generate()
	}
	return out
}

// EventSource adapts gen to the pull contract of a streaming source
// (eventflow.Source): successive calls return the next event of an
// n-event sample, then io.EOF. Generators are stateful, so the returned
// function must be driven from a single goroutine — exactly what a
// pipeline source guarantees.
func EventSource(gen Generator, n int) func() (*hepmc.Event, error) {
	i := 0
	return func() (*hepmc.Event, error) {
		if i >= n {
			return nil, io.EOF
		}
		i++
		return gen.Generate(), nil
	}
}
