package leshouches

import (
	"daspos/internal/datamodel"
	"daspos/internal/stats"
)

// Encapsulated functions (Rec 1b: "well-encapsulated functions ...
// necessary to reproduce or use the results"). Functions are versioned by
// name; analysis records reference them by name so a record stays valid as
// long as the platform carries the function — no analyst code needs
// preserving. Validation holds a record to this list; a name changes its
// version suffix when the function's behaviour changes.
var functions = map[string]bool{
	// Scalar sum of all arguments (object pTs plus MET), in GeV.
	"effective_mass.v1": true,
	// sqrt((|p1|+|p2|)^2 - (pz1+pz2)^2) for args [p1,pz1,p2,pz2].
	"razor_mr.v1": true,
	// (n-b)/sqrt(b + db^2) for args [n, b, db].
	"significance_naive.v1": true,
	// 95% CL CLs upper limit on signal events for args [nObs, background].
	"cls_upper_limit95.v1": true,
}

// Reinterpretation is the theorist's use case: apply an archived record's
// selection to a new model's events and extract the constraint.
type Reinterpretation struct {
	// Generated and Selected count the new-model sample.
	Generated, Selected int
	// Acceptance is Selected/Generated.
	Acceptance float64
	// UpperLimitEvents is the 95% CL CLs limit on signal events given the
	// record's observed count and background.
	UpperLimitEvents float64
	// UpperLimitXsecPb is the limit divided by (acceptance × luminosity),
	// in picobarns, when luminosity (in /pb) is positive and acceptance
	// nonzero; 0 otherwise.
	UpperLimitXsecPb float64
}

// Reinterpret runs an archived analysis over new-model events and
// extracts the cross-section constraint — the theorist re-running "an
// analysis on a new model in order to understand what constraints
// existing data places on new physics ideas". luminosityPb is the
// integrated luminosity in inverse picobarns.
func Reinterpret(r *AnalysisRecord, events []*datamodel.Event, luminosityPb float64) (Reinterpretation, error) {
	flow, err := r.fold(events)
	if err != nil {
		return Reinterpretation{Generated: len(events), Selected: flow[len(flow)-1]}, err
	}
	return r.Interpret(flow, luminosityPb), nil
}

// Interpret extracts the constraint from the cut flow of a new-model
// sample: what Reinterpret returns, for a caller that tallied the flow event
// by event instead of holding the sample.
func (r *AnalysisRecord) Interpret(flow []int, luminosityPb float64) Reinterpretation {
	out := Reinterpretation{Generated: flow[0], Selected: flow[len(flow)-1]}
	if out.Generated > 0 {
		out.Acceptance = float64(out.Selected) / float64(out.Generated)
	}
	out.UpperLimitEvents = stats.UpperLimit(r.ObservedEvents, r.Background, 0.95)
	if luminosityPb > 0 && out.Acceptance > 0 {
		out.UpperLimitXsecPb = out.UpperLimitEvents / (out.Acceptance * luminosityPb)
	}
	return out
}
