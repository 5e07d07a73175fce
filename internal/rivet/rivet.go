// Package rivet implements the RIVET-style analysis-preservation
// framework the paper examines in §2.3: analyses are plugins over
// generator-level (HepMC) events, written against a standard toolkit of
// projections, registered in a public catalogue, and distributed together
// with the reference data they were validated against. "Once an analysis
// is put into RIVET, anyone can examine the analysis code and the reduced
// data provided for comparisons" — here, anyone can list the registry,
// run a preserved analysis on fresh Monte Carlo, and χ²-compare the
// output against the archived reference histograms (ExportYODA writes
// them; core.Capsule.ValidateRerun compares a re-run with them).
package rivet

import (
	"bytes"
	"fmt"
	"sync"

	"daspos/internal/hepmc"
	"daspos/internal/hist"
)

// Metadata describes a preserved analysis: the catalogue entry a future
// user reads before running it.
type Metadata struct {
	// Name is the registry key, conventionally EXPERIMENT_YEAR_INSPIREID.
	Name string `json:"name"`
	// Experiment and Year locate the original measurement.
	Experiment string `json:"experiment"`
	Year       int    `json:"year"`
	// InspireID links to the literature record (the INSPIRE/HepData
	// cross-linking the paper describes).
	InspireID string `json:"inspire_id,omitempty"`
	// Summary is a one-paragraph description of what is measured.
	Summary string `json:"summary"`
	// References are literature pointers.
	References []string `json:"references,omitempty"`
}

// Analysis is the plugin interface. Implementations must be stateless
// between runs except for histograms booked through the Context.
type Analysis interface {
	// Metadata returns the catalogue entry.
	Metadata() Metadata
	// Init books histograms.
	Init(ctx *Context)
	// Analyze processes one event.
	Analyze(ctx *Context, ev *hepmc.Event)
	// Finalize normalizes or post-processes the booked histograms.
	Finalize(ctx *Context)
}

// Context carries per-analysis state through a run: histogram booking and
// the current event weight.
type Context struct {
	analysis string
	histos   map[string]*hist.H1D
	order    []string
	// Weight is the current event's weight, set by the runner before each
	// Analyze call.
	Weight float64
	// sumW accumulates total processed weight for normalization.
	sumW float64
}

// BookH1D books (or returns the already-booked) histogram under the
// analysis's namespace.
func (c *Context) BookH1D(name string, bins int, lo, hi float64) *hist.H1D {
	if h, ok := c.histos[name]; ok {
		return h
	}
	h := hist.NewH1D(c.analysis+"/"+name, bins, lo, hi)
	c.histos[name] = h
	c.order = append(c.order, name)
	return h
}

// SumW returns the total event weight processed so far: the Finalize-time
// normalization denominator.
func (c *Context) SumW() float64 { return c.sumW }

// factory builds a fresh Analysis instance.
type factory func() Analysis

var (
	registryMu sync.RWMutex
	registry   = make(map[string]factory)
)

// Register adds an analysis to the global catalogue. It panics on
// duplicate names — collisions in a preservation registry are programming
// errors, not runtime conditions.
func Register(name string, f func() Analysis) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("rivet: duplicate analysis %q", name))
	}
	registry[name] = f
}

// NewAnalysis instantiates a registered analysis.
func NewAnalysis(name string) (Analysis, error) {
	registryMu.RLock()
	f, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("rivet: unknown analysis %q", name)
	}
	return f(), nil
}

// Run executes one or more analyses over an event stream.
type Run struct {
	analyses  []Analysis
	contexts  []*Context
	finalized bool
}

// NewRun instantiates the named analyses and initializes their contexts.
func NewRun(names ...string) (*Run, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("rivet: run with no analyses")
	}
	r := &Run{}
	for _, n := range names {
		a, err := NewAnalysis(n)
		if err != nil {
			return nil, err
		}
		ctx := &Context{analysis: a.Metadata().Name, histos: make(map[string]*hist.H1D)}
		a.Init(ctx)
		r.analyses = append(r.analyses, a)
		r.contexts = append(r.contexts, ctx)
	}
	return r, nil
}

// Process feeds one event to every analysis.
func (r *Run) Process(ev *hepmc.Event) error {
	if r.finalized {
		return fmt.Errorf("rivet: run already finalized")
	}
	w := ev.Weight
	if w == 0 {
		w = 1
	}
	for i, a := range r.analyses {
		ctx := r.contexts[i]
		ctx.Weight = w
		ctx.sumW += w
		a.Analyze(ctx, ev)
	}
	return nil
}

// Finalize runs every analysis's Finalize and locks the run.
func (r *Run) Finalize() error {
	if r.finalized {
		return fmt.Errorf("rivet: run already finalized")
	}
	for i, a := range r.analyses {
		a.Finalize(r.contexts[i])
	}
	r.finalized = true
	return nil
}

// Histograms returns every analysis's booked histograms in booking order.
func (r *Run) Histograms() []*hist.H1D {
	var out []*hist.H1D
	for _, ctx := range r.contexts {
		for _, name := range ctx.order {
			out = append(out, ctx.histos[name])
		}
	}
	return out
}

// ExportYODA serializes the run's histograms in the archival text format:
// the reference-data payload that travels with a preserved analysis.
func (r *Run) ExportYODA() ([]byte, error) {
	var buf bytes.Buffer
	if err := hist.WriteAll(&buf, r.Histograms()...); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
