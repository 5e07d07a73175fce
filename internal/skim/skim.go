// Package skim implements the post-AOD derivation machinery of the paper's
// workflow analysis (§3.2): "the dropping of events (known as 'skimming')
// and the reduction of the event content (known as 'slimming') result in a
// reduction of the final data size". The paper observes that "each
// processing step between the final centrally-processed format and some
// reduced format can be reduced to a logical skimming/slimming
// description" — so this package makes that description a first-class,
// JSON-serializable value: a preserved Derivation can be re-executed
// decades later without preserving any analyst code.
package skim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"

	"daspos/internal/datamodel"
)

// Op is a comparison operator in a cut expression.
type Op string

// Supported comparison operators.
const (
	OpGT Op = ">"
	OpGE Op = ">="
	OpLT Op = "<"
	OpLE Op = "<="
	OpEQ Op = "=="
	OpNE Op = "!="
)

func (o Op) valid() bool {
	switch o {
	case OpGT, OpGE, OpLT, OpLE, OpEQ, OpNE:
		return true
	}
	return false
}

// Cut is one declarative requirement on an event variable.
type Cut struct {
	Variable string  `json:"variable"`
	Op       Op      `json:"op"`
	Value    float64 `json:"value"`
}

// String renders the cut in the conventional notation.
func (c Cut) String() string { return fmt.Sprintf("%s %s %g", c.Variable, c.Op, c.Value) }

// Eval evaluates the cut on an event.
func (c Cut) Eval(e *datamodel.Event) (bool, error) {
	v, err := EvalVariable(e, c.Variable)
	if err != nil {
		return false, err
	}
	switch c.Op {
	case OpGT:
		return v > c.Value, nil
	case OpGE:
		return v >= c.Value, nil
	case OpLT:
		return v < c.Value, nil
	case OpLE:
		return v <= c.Value, nil
	case OpEQ:
		return v == c.Value, nil
	case OpNE:
		return v != c.Value, nil
	default:
		return false, fmt.Errorf("skim: unknown operator %q", c.Op)
	}
}

// Variables understood by EvalVariable. Keeping the catalogue closed and
// documented is what makes archived selections interpretable without the
// code that wrote them (the Les Houches "unambiguously defined kinematic
// variables" recommendation).
var variableDocs = map[string]string{
	"n_muons":             "number of muon candidates",
	"n_electrons":         "number of electron candidates",
	"n_photons":           "number of photon candidates",
	"n_jets":              "number of jet candidates",
	"n_leptons":           "number of electron plus muon candidates",
	"n_tracks":            "number of reconstructed tracks (RECO tier only)",
	"leading_muon_pt":     "pT of the leading muon (GeV); 0 if none",
	"leading_electron_pt": "pT of the leading electron (GeV); 0 if none",
	"leading_photon_pt":   "pT of the leading photon (GeV); 0 if none",
	"leading_jet_pt":      "pT of the leading jet (GeV); 0 if none",
	"met":                 "missing transverse momentum (GeV)",
	"sum_et":              "scalar sum of transverse energy (GeV)",
	"ht":                  "scalar sum of jet pT (GeV)",
}

// EvalVariable computes a catalogue variable for an event. Aux variables
// are addressed as "aux:<key>" and read the event's Aux map.
func EvalVariable(e *datamodel.Event, name string) (float64, error) {
	switch name {
	case "n_muons":
		return float64(len(e.CandidatesOf(datamodel.ObjMuon))), nil
	case "n_electrons":
		return float64(len(e.CandidatesOf(datamodel.ObjElectron))), nil
	case "n_photons":
		return float64(len(e.CandidatesOf(datamodel.ObjPhoton))), nil
	case "n_jets":
		return float64(len(e.CandidatesOf(datamodel.ObjJet))), nil
	case "n_leptons":
		return float64(len(e.CandidatesOf(datamodel.ObjMuon)) + len(e.CandidatesOf(datamodel.ObjElectron))), nil
	case "n_tracks":
		return float64(len(e.Tracks)), nil
	case "leading_muon_pt":
		return leadingPt(e, datamodel.ObjMuon), nil
	case "leading_electron_pt":
		return leadingPt(e, datamodel.ObjElectron), nil
	case "leading_photon_pt":
		return leadingPt(e, datamodel.ObjPhoton), nil
	case "leading_jet_pt":
		return leadingPt(e, datamodel.ObjJet), nil
	case "met":
		return e.Missing.Pt, nil
	case "sum_et":
		return e.Missing.SumEt, nil
	case "ht":
		ht := 0.0
		for _, j := range e.CandidatesOf(datamodel.ObjJet) {
			ht += j.P.Pt()
		}
		return ht, nil
	}
	if len(name) > 4 && name[:4] == "aux:" {
		if v, ok := e.Aux[name[4:]]; ok {
			return v, nil
		}
		return 0, fmt.Errorf("skim: event has no aux variable %q", name[4:])
	}
	return 0, fmt.Errorf("skim: unknown variable %q", name)
}

func leadingPt(e *datamodel.Event, t datamodel.ObjectType) float64 {
	c, ok := e.LeadingCandidate(t)
	if !ok {
		return 0
	}
	return c.P.Pt()
}

// Selection is a named conjunction of cuts: the skim half of a derivation.
type Selection struct {
	Name string `json:"name"`
	Cuts []Cut  `json:"cuts"`
}

// Validate checks operators and variable names without needing an event.
func (s Selection) Validate() error {
	for _, c := range s.Cuts {
		if !c.Op.valid() {
			return fmt.Errorf("skim: selection %q: bad operator %q", s.Name, c.Op)
		}
		if _, ok := variableDocs[c.Variable]; !ok {
			if len(c.Variable) <= 4 || c.Variable[:4] != "aux:" {
				return fmt.Errorf("skim: selection %q: unknown variable %q", s.Name, c.Variable)
			}
		}
	}
	return nil
}

// Pass reports whether the event satisfies every cut.
func (s Selection) Pass(e *datamodel.Event) (bool, error) {
	for _, c := range s.Cuts {
		ok, err := c.Eval(e)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// SlimPolicy is the content-pruning half of a derivation.
type SlimPolicy struct {
	Name string `json:"name"`
	// DropRecoDetail removes tracks, vertices, and clusters (the RECO→AOD
	// slim).
	DropRecoDetail bool `json:"drop_reco_detail"`
	// MinCandidatePt prunes candidates below this pT (GeV).
	MinCandidatePt float64 `json:"min_candidate_pt"`
	// KeepTypes restricts candidates to the listed types; empty keeps all.
	KeepTypes []datamodel.ObjectType `json:"keep_types,omitempty"`
	// DropAux removes all aux variables except those in KeepAux.
	DropAux bool     `json:"drop_aux"`
	KeepAux []string `json:"keep_aux,omitempty"`
}

// Apply returns a pruned copy of the event at Derived tier. The input is
// never modified.
func (p SlimPolicy) Apply(e *datamodel.Event) *datamodel.Event {
	out := e.Clone()
	out.Tier = datamodel.TierDerived
	if p.DropRecoDetail {
		out.Tracks, out.Vertices, out.Clusters = nil, nil, nil
	}
	if p.MinCandidatePt > 0 || len(p.KeepTypes) > 0 {
		kept := out.Candidates[:0]
		for _, c := range out.Candidates {
			if p.MinCandidatePt > 0 && c.P.Pt() < p.MinCandidatePt {
				continue
			}
			if len(p.KeepTypes) > 0 && !slices.Contains(p.KeepTypes, c.Type) {
				continue
			}
			kept = append(kept, c)
		}
		out.Candidates = kept
	}
	if p.DropAux {
		if len(p.KeepAux) == 0 {
			out.Aux = nil
		} else {
			aux := make(map[string]float64)
			for _, k := range p.KeepAux {
				if v, ok := out.Aux[k]; ok {
					aux[k] = v
				}
			}
			out.Aux = aux
		}
	}
	return out
}

// Derivation is one preservable skim+slim step, the unit of the post-AOD
// workflow.
type Derivation struct {
	Name      string     `json:"name"`
	Selection Selection  `json:"selection"`
	Slim      SlimPolicy `json:"slim"`
}

// Validate checks the derivation is well-formed.
func (d Derivation) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("skim: derivation without a name")
	}
	return d.Selection.Validate()
}

// Apply evaluates the derivation on a single event: the derived event and
// true when selected, nil and false otherwise. It is the stage adapter for
// streaming pipelines (the signature matches eventflow's stage functions;
// Apply never mutates its input, so any worker count is safe).
func (d Derivation) Apply(e *datamodel.Event) (*datamodel.Event, bool, error) {
	ok, err := d.Selection.Pass(e)
	if err != nil {
		return nil, false, fmt.Errorf("skim: derivation %q: %w", d.Name, err)
	}
	if !ok {
		return nil, false, nil
	}
	return d.Slim.Apply(e), true, nil
}

// MarshalJSON is provided by the struct tags; Encode/Decode wrap them with
// validation so an archived derivation is checked on the way in and out.

// Encode serializes the derivation to its archival JSON form.
func (d Derivation) Encode() ([]byte, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return json.MarshalIndent(d, "", "  ")
}

// Digest returns the SHA-256 of the derivation's archival JSON form: its
// selection cuts and slimming policy, not just its name.
func (d Derivation) Digest() (string, error) {
	data, err := d.Encode()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// DecodeDerivation parses and validates an archived derivation.
func DecodeDerivation(data []byte) (Derivation, error) {
	var d Derivation
	if err := json.Unmarshal(data, &d); err != nil {
		return Derivation{}, fmt.Errorf("skim: parsing derivation: %w", err)
	}
	if err := d.Validate(); err != nil {
		return Derivation{}, err
	}
	return d, nil
}

// Train is several derivations run over one pass of the input — the
// CMS-style centralized production of group formats the paper contrasts
// with ATLAS's decentralized model. Each derivation names its own output,
// so no two may share a name.
type Train struct {
	Name        string       `json:"name"`
	Derivations []Derivation `json:"derivations"`
}

// Validate checks every derivation and that no two share a name.
func (t Train) Validate() error {
	seen := make(map[string]bool, len(t.Derivations))
	for _, d := range t.Derivations {
		if err := d.Validate(); err != nil {
			return err
		}
		if seen[d.Name] {
			return fmt.Errorf("skim: train %q has two derivations named %q", t.Name, d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}
