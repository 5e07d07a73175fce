// Package datamodel defines the event data model and the data-tier
// taxonomy of the processing chain the paper analyses in §3.2: RECO events
// carry the full reconstruction detail ("the original individual processed
// hits ... through the various intermediate stages"), AOD keeps "only the
// refined objects necessary for further analysis", and derived formats are
// the skimmed/slimmed group formats built from AOD. The package also
// encodes the DPHEP data-level nomenclature (Levels 1–4) used throughout
// the paper's Level 2 discussion.
package datamodel

import (
	"fmt"

	"daspos/internal/fourvec"
)

// Tier labels a processing stage's output format.
type Tier int

// Processing tiers, in production order.
const (
	TierRAW Tier = iota + 1
	TierRECO
	TierAOD
	TierDerived
)

// String returns the tier name.
func (t Tier) String() string {
	switch t {
	case TierRAW:
		return "RAW"
	case TierRECO:
		return "RECO"
	case TierAOD:
		return "AOD"
	case TierDerived:
		return "DERIVED"
	default:
		return fmt.Sprintf("tier(%d)", int(t))
	}
}

// DPHEPLevel is the DPHEP preservation-level nomenclature the paper uses:
// what is preserved, for whom.
type DPHEPLevel int

// DPHEP data levels.
const (
	// DPHEPLevel1 is published results: tables, figures, HepData payloads.
	DPHEPLevel1 DPHEPLevel = 1 + iota
	// DPHEPLevel2 is "actual data and simulation presented in higher-level
	// simplified formats" — outreach samples, encapsulated analyses.
	DPHEPLevel2
	// DPHEPLevel3 is analysis-level data plus the software to use it (AOD
	// and derived formats with reconstruction-level information).
	DPHEPLevel3
	// DPHEPLevel4 is raw data plus the full production software chain.
	DPHEPLevel4
)

// String returns the level's nomenclature description.
func (l DPHEPLevel) String() string {
	switch l {
	case DPHEPLevel1:
		return "L1:published"
	case DPHEPLevel2:
		return "L2:simplified"
	case DPHEPLevel3:
		return "L3:analysis-level"
	case DPHEPLevel4:
		return "L4:raw-and-software"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// ObjectType classifies candidate physics objects.
type ObjectType int

// Candidate object types.
const (
	ObjElectron ObjectType = iota + 1
	ObjMuon
	ObjPhoton
	ObjJet
	ObjTrackCandidate
)

// String returns the object-type name.
func (o ObjectType) String() string {
	switch o {
	case ObjElectron:
		return "electron"
	case ObjMuon:
		return "muon"
	case ObjPhoton:
		return "photon"
	case ObjJet:
		return "jet"
	case ObjTrackCandidate:
		return "track"
	default:
		return fmt.Sprintf("object(%d)", int(o))
	}
}

// Track is a reconstructed charged-particle trajectory (RECO detail).
type Track struct {
	P fourvec.Vec
	// Charge in units of e.
	Charge float64
	// D0 and Z0 are the transverse and longitudinal impact parameters in
	// mm relative to the nominal beamline; displaced-vertex physics (V0s,
	// D lifetimes) lives in these fields.
	D0, Z0 float64
	// NHits is the number of tracker hits on the fit.
	NHits int
	// Chi2 is the fit quality.
	Chi2 float64
}

// VertexFit is a reconstructed interaction or decay vertex (RECO detail).
type VertexFit struct {
	X, Y, Z float64
	NTracks int
	Chi2    float64
}

// Cluster is a calorimeter energy cluster (RECO detail).
type Cluster struct {
	E        float64
	Eta, Phi float64
	// EM marks electromagnetic-calorimeter clusters.
	EM     bool
	NCells int
}

// Candidate is a refined physics object: the AOD-level unit of analysis.
type Candidate struct {
	Type   ObjectType
	P      fourvec.Vec
	Charge float64
	// Quality is an identification score in [0,1].
	Quality float64
	// Isolation is the scalar pT sum in a surrounding cone, in GeV;
	// smaller is more isolated.
	Isolation float64
}

// MET is the event's missing transverse momentum.
type MET struct {
	Pt, Phi float64
	// SumEt is the scalar sum of visible transverse energy.
	SumEt float64
}

// Event is one event at RECO tier or below. Which slices are populated
// depends on the tier: slimming to AOD drops Tracks, Vertices, and
// Clusters; derivation additionally prunes Candidates and Aux.
type Event struct {
	Run    uint32
	Number uint64
	Tier   Tier
	// ProcessID carries the generator truth for simulated samples; it is 0
	// for "collision" data.
	ProcessID int

	Tracks   []Track
	Vertices []VertexFit
	Clusters []Cluster

	Candidates []Candidate
	Missing    MET

	// Aux carries named event-level quantities added by derivation steps
	// (e.g. derived discriminants). Slimming policies may prune it.
	Aux map[string]float64
}

// CandidatesOf returns the event's candidates of one type.
func (e *Event) CandidatesOf(t ObjectType) []Candidate {
	var out []Candidate
	for _, c := range e.Candidates {
		if c.Type == t {
			out = append(out, c)
		}
	}
	return out
}

// LeadingCandidate returns the highest-pT candidate of a type and whether
// one exists.
func (e *Event) LeadingCandidate(t ObjectType) (Candidate, bool) {
	var best Candidate
	found := false
	for _, c := range e.Candidates {
		if c.Type != t {
			continue
		}
		if !found || c.P.Pt() > best.P.Pt() {
			best = c
			found = true
		}
	}
	return best, found
}

// PrimaryVertex returns the vertex with the most tracks, the conventional
// primary-vertex choice, and whether any vertex exists.
func (e *Event) PrimaryVertex() (VertexFit, bool) {
	var best VertexFit
	found := false
	for _, v := range e.Vertices {
		if !found || v.NTracks > best.NTracks {
			best = v
			found = true
		}
	}
	return best, found
}

// SlimToAOD returns a copy of the event at AOD tier: candidates, MET, and
// aux survive; reconstruction detail is dropped. The receiver is not
// modified — derivation never mutates its input, a property the provenance
// layer relies on.
func (e *Event) SlimToAOD() *Event {
	out := &Event{
		Run: e.Run, Number: e.Number, Tier: TierAOD, ProcessID: e.ProcessID,
		Candidates: append([]Candidate(nil), e.Candidates...),
		Missing:    e.Missing,
	}
	if e.Aux != nil {
		out.Aux = make(map[string]float64, len(e.Aux))
		for k, v := range e.Aux {
			out.Aux[k] = v
		}
	}
	return out
}

// SlimViewAOD returns a shallow AOD view of the event: candidates, MET and
// aux are borrowed from the receiver, not copied. The view encodes to
// exactly the bytes SlimToAOD's deep copy would, without allocating — the
// slim stage of the hot path serializes the view and drops it. The view
// shares the receiver's storage: Clone it if it must outlive the receiver
// or be modified.
func (e *Event) SlimViewAOD() Event {
	return Event{
		Run: e.Run, Number: e.Number, Tier: TierAOD, ProcessID: e.ProcessID,
		Candidates: e.Candidates,
		Missing:    e.Missing,
		Aux:        e.Aux,
	}
}

// Clone returns a deep copy of the event at the same tier.
func (e *Event) Clone() *Event {
	out := *e
	out.Tracks = append([]Track(nil), e.Tracks...)
	out.Vertices = append([]VertexFit(nil), e.Vertices...)
	out.Clusters = append([]Cluster(nil), e.Clusters...)
	out.Candidates = append([]Candidate(nil), e.Candidates...)
	if e.Aux != nil {
		out.Aux = make(map[string]float64, len(e.Aux))
		for k, v := range e.Aux {
			out.Aux[k] = v
		}
	}
	return &out
}
