// Package bridge implements the DASPOS RECAST↔RIVET connection announced
// in the paper's conclusions: "It should be relatively straightforward to
// create a 'back end' for RECAST such that any analysis implemented in
// RIVET could be subject to the RECAST framework. This could offer one
// avenue towards making the advanced tools of RECAST available to RIVET
// analyses."
//
// RivetBackend satisfies recast.Backend but replaces the full experiment
// chain with the light tier: generation plus parametric fast simulation,
// with the archived analysis applied to the smeared objects. A bridged
// request costs a small fraction of a full-sim request; experiment R3
// quantifies both the cost ratio and the residual acceptance difference.
package bridge

import (
	"context"
	"fmt"
	"math"

	"daspos/internal/datamodel"
	"daspos/internal/fourvec"
	"daspos/internal/generator"
	"daspos/internal/leshouches"
	"daspos/internal/recast"
	"daspos/internal/sim"
	"daspos/internal/units"
)

// RivetBackend is the light-tier RECAST back end.
type RivetBackend struct {
	// LuminosityPb converts event limits to cross sections.
	LuminosityPb float64
}

// ConfigDigest implements recast.Backend: the light tier's output
// is determined by the model plus luminosity. The trailing "val=[]" is the
// empty validation set of the deleted validation-analyses option: results
// journaled under the old digest must still deduplicate.
func (b *RivetBackend) ConfigDigest() string {
	return fmt.Sprintf("rivet-bridge|lumi=%x|val=[]", math.Float64bits(b.LuminosityPb))
}

// Process implements recast.Backend: generate, fast-simulate, apply the
// archived record, and extract limits. The context's deadline is checked
// between events so an expired request stops burning the generator.
func (b *RivetBackend) Process(ctx context.Context, model recast.ModelSpec, record *leshouches.AnalysisRecord) (*recast.Result, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	cfg := generator.DefaultConfig(model.Seed)
	gen := generator.NewZPrime(cfg, model.MassGeV)
	fast := sim.NewFastSim(model.Seed)

	events := make([]*datamodel.Event, 0, model.Events)
	for i := 0; i < model.Events; i++ {
		if i%64 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("bridge: abandoned after %d/%d events: %w", i, model.Events, err)
			}
		}
		ev := gen.Generate()
		events = append(events, EventFromFastObjects(uint64(ev.Number), fast.Simulate(ev)))
	}
	flow, err := record.CutFlow(events)
	if err != nil {
		return nil, err
	}
	return recast.NewResult("rivet-bridge", record, flow, model, b.LuminosityPb), nil
}

// EventFromFastObjects converts fast-simulation output into an AOD-tier
// event so archived Les Houches records apply identically to both tiers.
func EventFromFastObjects(number uint64, objs []sim.FastObject) *datamodel.Event {
	e := &datamodel.Event{Number: number, Tier: datamodel.TierAOD}
	for i, o := range objs {
		var typ datamodel.ObjectType
		switch {
		case abs(o.PDG) == units.PDGElectron:
			typ = datamodel.ObjElectron
		case abs(o.PDG) == units.PDGMuon:
			typ = datamodel.ObjMuon
		case o.PDG == units.PDGPhoton:
			typ = datamodel.ObjPhoton
		default:
			typ = datamodel.ObjTrackCandidate
		}
		e.Candidates = append(e.Candidates, datamodel.Candidate{
			Type: typ, P: o.P, Charge: units.Charge(o.PDG),
			Quality:   0.95,
			Isolation: coneActivity(objs, i),
		})
	}
	pt, phi := sim.MissingPt(objs)
	e.Missing = datamodel.MET{Pt: pt, Phi: phi, SumEt: scalarSum(objs)}
	return e
}

// coneActivity sums the pT of other objects within ΔR < 0.3.
func coneActivity(objs []sim.FastObject, self int) float64 {
	var iso float64
	for i, o := range objs {
		if i == self {
			continue
		}
		if fourvec.DeltaR(o.P, objs[self].P) < 0.3 {
			iso += o.P.Pt()
		}
	}
	return iso
}

func scalarSum(objs []sim.FastObject) float64 {
	s := 0.0
	for _, o := range objs {
		s += o.P.Pt()
	}
	return s
}

// Agreement compares a full-sim and a bridged result for the same model:
// the acceptance difference in units of its combined binomial uncertainty.
type Agreement struct {
	FullAcceptance   float64
	BridgeAcceptance float64
	// DeltaSigma is |Δacc| / σ(Δacc); +Inf when the acceptances differ
	// but neither has a binomial spread (each is 0 or 1).
	DeltaSigma float64
	// Discrepant marks |Δ| beyond 3σ: the detector effects the light tier
	// cannot model matter for this analysis.
	Discrepant bool
}

// CompareResults quantifies full-vs-bridge agreement.
func CompareResults(full, bridged *recast.Result) Agreement {
	a := Agreement{FullAcceptance: full.Acceptance, BridgeAcceptance: bridged.Acceptance}
	diff := math.Abs(full.Acceptance - bridged.Acceptance)
	switch sigma2 := binomialVar(full) + binomialVar(bridged); {
	case sigma2 > 0:
		a.DeltaSigma = diff / math.Sqrt(sigma2)
	case diff > 0:
		a.DeltaSigma = math.Inf(1)
	}
	a.Discrepant = a.DeltaSigma > 3
	return a
}

func binomialVar(r *recast.Result) float64 {
	if r.Generated == 0 {
		return 0
	}
	p := r.Acceptance
	return p * (1 - p) / float64(r.Generated)
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}
