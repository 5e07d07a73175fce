package rivet

import (
	"math"
	"sort"

	"daspos/internal/fourvec"
	"daspos/internal/hepmc"
	"daspos/internal/units"
)

// Projections are the standard toolkit analyses share — "a series of
// standard tools ... exploited to replicate analysis cuts and procedures
// within the RIVET framework". Each is a pure function of the event, so
// preserved analyses compose them without hidden state.

// FinalState selects stable particles within acceptance.
type FinalState struct {
	// MinPt in GeV; 0 keeps everything.
	MinPt float64
	// MaxAbsEta bounds |η|; 0 means unbounded.
	MaxAbsEta float64
}

// Apply returns the selected particles.
func (fs FinalState) Apply(ev *hepmc.Event) []hepmc.Particle {
	var out []hepmc.Particle
	for _, p := range ev.Particles {
		if !p.IsFinal() {
			continue
		}
		if fs.MinPt > 0 && p.P.Pt() < fs.MinPt {
			continue
		}
		if fs.MaxAbsEta > 0 && math.Abs(p.P.Eta()) > fs.MaxAbsEta {
			continue
		}
		out = append(out, p)
	}
	return out
}

// ChargedFinalState selects stable charged particles within acceptance.
type ChargedFinalState struct {
	MinPt     float64
	MaxAbsEta float64
}

// Apply returns the selected charged particles.
func (cfs ChargedFinalState) Apply(ev *hepmc.Event) []hepmc.Particle {
	base := FinalState{MinPt: cfs.MinPt, MaxAbsEta: cfs.MaxAbsEta}.Apply(ev)
	out := base[:0]
	for _, p := range base {
		if units.IsCharged(p.PDG) {
			out = append(out, p)
		}
	}
	return out
}

// IdentifiedFinalState selects stable particles of the given |PDG| codes.
type IdentifiedFinalState struct {
	PDGs      []int
	MinPt     float64
	MaxAbsEta float64
}

// Apply returns the selected particles.
func (ifs IdentifiedFinalState) Apply(ev *hepmc.Event) []hepmc.Particle {
	base := FinalState{MinPt: ifs.MinPt, MaxAbsEta: ifs.MaxAbsEta}.Apply(ev)
	var out []hepmc.Particle
	for _, p := range base {
		for _, pdg := range ifs.PDGs {
			if p.PDG == pdg || p.PDG == -pdg {
				out = append(out, p)
				break
			}
		}
	}
	return out
}

// MissingMomentum computes the event's invisible transverse momentum.
type MissingMomentum struct{}

// Apply returns (pT, φ) of the missing momentum.
func (MissingMomentum) Apply(ev *hepmc.Event) (pt, phi float64) {
	return ev.MissingPt()
}

// Jet is a truth-level cone jet.
type Jet struct {
	P fourvec.Vec
	// Constituents is the number of particles clustered in.
	Constituents int
}

// ConeJets clusters visible final-state particles into cones: the greedy
// seeded-cone algorithm (an anti-kT stand-in adequate for truth-level
// spectra).
type ConeJets struct {
	// R is the cone radius.
	R float64
	// MinJetPt drops jets below this pT.
	MinJetPt float64
	// MinParticlePt drops input particles below this pT.
	MinParticlePt float64
	// MaxAbsEta bounds the input acceptance.
	MaxAbsEta float64
}

// Apply returns jets sorted by decreasing pT.
func (cj ConeJets) Apply(ev *hepmc.Event) []Jet {
	r := cj.R
	if r <= 0 {
		r = 0.4
	}
	var inputs []fourvec.Vec
	for _, p := range ev.Particles {
		if !p.IsFinal() || units.IsNeutrino(p.PDG) {
			continue
		}
		if abs(p.PDG) == units.PDGMuon {
			continue // muons are not jet constituents
		}
		if cj.MinParticlePt > 0 && p.P.Pt() < cj.MinParticlePt {
			continue
		}
		if cj.MaxAbsEta > 0 && math.Abs(p.P.Eta()) > cj.MaxAbsEta {
			continue
		}
		inputs = append(inputs, p.P)
	}
	sort.Slice(inputs, func(i, j int) bool { return inputs[i].Pt() > inputs[j].Pt() })
	used := make([]bool, len(inputs))
	var jets []Jet
	for i := range inputs {
		if used[i] {
			continue
		}
		seed := inputs[i]
		jet := Jet{P: seed, Constituents: 1}
		used[i] = true
		for j := i + 1; j < len(inputs); j++ {
			if used[j] {
				continue
			}
			if fourvec.DeltaR(seed, inputs[j]) < r {
				jet.P = jet.P.Add(inputs[j])
				jet.Constituents++
				used[j] = true
			}
		}
		if jet.P.Pt() >= cj.MinJetPt {
			jets = append(jets, jet)
		}
	}
	sort.Slice(jets, func(i, j int) bool { return jets[i].P.Pt() > jets[j].P.Pt() })
	return jets
}

// OppositeSignPairs returns all opposite-charge pairs of the given lepton
// species, ordered by decreasing pair pT.
type OppositeSignPairs struct {
	PDG       int
	MinPt     float64
	MaxAbsEta float64
}

// Pair is a dilepton candidate.
type Pair struct {
	Plus, Minus hepmc.Particle
}

// Apply returns the selected pairs.
func (osp OppositeSignPairs) Apply(ev *hepmc.Event) []Pair {
	leps := IdentifiedFinalState{PDGs: []int{osp.PDG}, MinPt: osp.MinPt, MaxAbsEta: osp.MaxAbsEta}.Apply(ev)
	var plus, minus []hepmc.Particle
	for _, l := range leps {
		if units.Charge(l.PDG) > 0 {
			plus = append(plus, l)
		} else if units.Charge(l.PDG) < 0 {
			minus = append(minus, l)
		}
	}
	var out []Pair
	for _, p := range plus {
		for _, m := range minus {
			out = append(out, Pair{Plus: p, Minus: m})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Plus.P.Add(out[i].Minus.P).Pt() > out[j].Plus.P.Add(out[j].Minus.P).Pt()
	})
	return out
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}
