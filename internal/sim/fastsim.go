package sim

import (
	"math"

	"daspos/internal/fourvec"
	"daspos/internal/hepmc"
	"daspos/internal/units"
	"daspos/internal/xrand"
)

// FastObject is a parametrically smeared physics object produced by the
// fast simulation: the truth-level particle seen through detector-response
// curves rather than through per-hit simulation. This is the tier the
// paper's RIVET discussion calls out as missing ("no way to include a
// detector simulation, or even the degradations in resolution and particle
// collection efficiencies") — FastSim provides exactly those degradations
// at negligible cost.
type FastObject struct {
	// PDG is the reconstructed hypothesis (electron, muon, photon); charged
	// hadrons become generic tracks with their true PDG retained.
	PDG int
	P   fourvec.Vec
}

// FastSim smears generator final states by parametric response curves.
type FastSim struct {
	rng *xrand.Rand
	// EtaMax is the acceptance edge; objects beyond it are dropped.
	EtaMax float64
}

// NewFastSim returns a fast simulation with LHC-like response parameters.
func NewFastSim(seed uint64) *FastSim {
	return &FastSim{rng: xrand.New(seed ^ 0xfa575e), EtaMax: 2.5}
}

// Simulate returns the smeared, efficiency-filtered objects for one event.
func (s *FastSim) Simulate(ev *hepmc.Event) []FastObject {
	var out []FastObject
	for _, p := range ev.Particles {
		if !p.IsFinal() || units.IsNeutrino(p.PDG) {
			continue
		}
		if math.Abs(p.P.Eta()) > s.EtaMax {
			continue
		}
		if o, ok := s.smear(p); ok {
			out = append(out, o)
		}
	}
	return out
}

// MissingPt returns the smeared missing transverse momentum for the event:
// the negative vector sum of the smeared visible objects.
func MissingPt(objs []FastObject) (pt, phi float64) {
	var sum fourvec.Vec
	for _, o := range objs {
		sum = sum.Add(o.P)
	}
	n := sum.Neg()
	return n.Pt(), n.Phi()
}

func (s *FastSim) smear(p hepmc.Particle) (FastObject, bool) {
	e := p.P.E
	pt := p.P.Pt()
	var eff, res float64
	switch {
	case p.PDG == units.PDGPhoton:
		if e < 0.5 {
			return FastObject{}, false
		}
		eff = 0.97
		res = math.Sqrt(0.03*0.03/e + 0.005*0.005)
	case abs(p.PDG) == units.PDGElectron:
		if pt < 0.5 {
			return FastObject{}, false
		}
		eff = 0.92
		res = math.Sqrt(0.03*0.03/e + 0.007*0.007)
	case abs(p.PDG) == units.PDGMuon:
		if pt < 0.5 {
			return FastObject{}, false
		}
		eff = 0.96
		// Tracker-dominated: resolution grows with pT.
		res = math.Sqrt(0.01*0.01 + (0.0002*pt)*(0.0002*pt))
	case units.Charge(p.PDG) != 0:
		if pt < 0.2 {
			return FastObject{}, false
		}
		eff = 0.90
		res = math.Sqrt(0.012*0.012 + (0.0003*pt)*(0.0003*pt))
	default:
		// Neutral hadrons: calorimeter-only, poor resolution.
		if e < 1.0 {
			return FastObject{}, false
		}
		eff = 0.85
		res = math.Sqrt(0.60*0.60/e + 0.05*0.05)
	}
	if !s.rng.Bool(eff) {
		return FastObject{}, false
	}
	k := 1 + s.rng.Gauss(0, res)
	if k <= 0 {
		return FastObject{}, false
	}
	return FastObject{PDG: p.PDG, P: p.P.Scale(k)}, true
}
