package leshouches

import (
	"math"
	"sync"

	"daspos/internal/datamodel"
	"daspos/internal/stats"
)

// Encapsulated functions (Rec 1b: "well-encapsulated functions ...
// necessary to reproduce or use the results"). Functions are versioned by
// name in a global registry; analysis records reference them by name so a
// record stays valid as long as the platform carries the function — no
// analyst code needs preserving.

// Function is one registered, documented function over a float vector.
type Function struct {
	// Name is the registry key, including a version suffix when behaviour
	// changes, e.g. "effective_mass.v1".
	Name string
	// Doc states the contract unambiguously.
	Doc string
	// Arity is the required argument count; negative means variadic with
	// at least -Arity arguments.
	Arity int
	// Eval computes the function.
	Eval func(args []float64) float64
}

var (
	funcMu    sync.RWMutex
	functions = make(map[string]Function)
)

// RegisterFunction adds a function to the platform registry. It panics on
// duplicates: silently replacing an encapsulated function would corrupt
// every archived record referencing it.
func RegisterFunction(f Function) {
	funcMu.Lock()
	defer funcMu.Unlock()
	if _, dup := functions[f.Name]; dup {
		panic("leshouches: duplicate function " + f.Name)
	}
	functions[f.Name] = f
}

// LookupFunction resolves a registered function.
func LookupFunction(name string) (Function, bool) {
	funcMu.RLock()
	defer funcMu.RUnlock()
	f, ok := functions[name]
	return f, ok
}

func init() {
	RegisterFunction(Function{
		Name:  "effective_mass.v1",
		Doc:   "Scalar sum of all arguments (object pTs plus MET), in GeV.",
		Arity: -1,
		Eval: func(args []float64) float64 {
			s := 0.0
			for _, a := range args {
				s += a
			}
			return s
		},
	})
	RegisterFunction(Function{
		Name:  "razor_mr.v1",
		Doc:   "sqrt((|p1|+|p2|)^2 - (pz1+pz2)^2) for args [p1,pz1,p2,pz2].",
		Arity: 4,
		Eval: func(a []float64) float64 {
			v := (a[0]+a[2])*(a[0]+a[2]) - (a[1]+a[3])*(a[1]+a[3])
			if v <= 0 {
				return 0
			}
			return math.Sqrt(v)
		},
	})
	RegisterFunction(Function{
		Name:  "significance_naive.v1",
		Doc:   "(n-b)/sqrt(b + db^2) for args [n, b, db].",
		Arity: 3,
		Eval:  func(a []float64) float64 { return stats.Significance(int(a[0]), a[1], a[2]) },
	})
	RegisterFunction(Function{
		Name:  "cls_upper_limit95.v1",
		Doc:   "95% CL CLs upper limit on signal events for args [nObs, background].",
		Arity: 2,
		Eval:  func(a []float64) float64 { return stats.UpperLimit(int(a[0]), a[1], 0.95) },
	})
}

// Reinterpretation is the theorist's use case: apply an archived record's
// selection to a new model's events and extract the constraint.
type Reinterpretation struct {
	// Analysis is the archived record applied.
	Analysis string
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
		return Reinterpretation{Analysis: r.Name, Generated: len(events), Selected: flow[len(flow)-1]}, err
	}
	return r.Interpret(flow, luminosityPb), nil
}

// Interpret extracts the constraint from the cut flow of a new-model
// sample: what Reinterpret returns, for a caller that tallied the flow event
// by event instead of holding the sample.
func (r *AnalysisRecord) Interpret(flow []int, luminosityPb float64) Reinterpretation {
	out := Reinterpretation{Analysis: r.Name, Generated: flow[0], Selected: flow[len(flow)-1]}
	if out.Generated > 0 {
		out.Acceptance = float64(out.Selected) / float64(out.Generated)
	}
	out.UpperLimitEvents = stats.UpperLimit(r.ObservedEvents, r.Background, 0.95)
	if luminosityPb > 0 && out.Acceptance > 0 {
		out.UpperLimitXsecPb = out.UpperLimitEvents / (out.Acceptance * luminosityPb)
	}
	return out
}
