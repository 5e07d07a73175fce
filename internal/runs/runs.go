// Package runs implements run and luminosity bookkeeping: the registry of
// data-taking runs with their integrated luminosity and data-quality
// verdicts, and the good-run lists every physics analysis starts from.
// The luminosity behind a preserved result is part of the result — the
// cross-section limits of the Les Houches and RECAST layers are only
// meaningful against the integrated luminosity of the runs analysed — so
// good-run lists serialize alongside the analyses they scope.
package runs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"daspos/internal/datamodel"
)

// Quality is a run's data-quality verdict.
type Quality string

// Verdicts.
const (
	QualityUnchecked Quality = "unchecked"
	QualityGood      Quality = "good"
	QualityBad       Quality = "bad"
)

// Record is one data-taking run.
type Record struct {
	Run    uint32  `json:"run"`
	Events int     `json:"events"`
	LumiPb float64 `json:"lumi_pb"`
	// Quality is the DQ verdict; Defects document a bad verdict.
	Quality Quality  `json:"quality"`
	Defects []string `json:"defects,omitempty"`
}

// ErrNoRun is returned for unknown run numbers.
var ErrNoRun = errors.New("runs: no such run")

// Registry is the run catalogue. Safe for concurrent use: resume and
// run-status reporting read it while the pipeline registers runs.
type Registry struct {
	mu   sync.RWMutex
	runs map[uint32]*Record
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{runs: make(map[uint32]*Record)}
}

// Add registers a run as unchecked. Duplicate run numbers are rejected.
func (r *Registry) Add(run uint32, events int, lumiPb float64) error {
	if events < 0 || lumiPb < 0 {
		return fmt.Errorf("runs: run %d has negative extent", run)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.runs[run]; dup {
		return fmt.Errorf("runs: run %d already registered", run)
	}
	r.runs[run] = &Record{Run: run, Events: events, LumiPb: lumiPb, Quality: QualityUnchecked}
	return nil
}

// SetQuality records the DQ verdict for a run. Marking a run bad requires
// at least one defect — an undocumented rejection is not auditable.
func (r *Registry) SetQuality(run uint32, q Quality, defects ...string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec, ok := r.runs[run]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoRun, run)
	}
	switch q {
	case QualityGood, QualityBad, QualityUnchecked:
	default:
		return fmt.Errorf("runs: unknown quality %q", q)
	}
	if q == QualityBad && len(defects) == 0 {
		return fmt.Errorf("runs: run %d marked bad without a defect", run)
	}
	rec.Quality = q
	rec.Defects = append([]string(nil), defects...)
	return nil
}

// runsLocked returns all run numbers, sorted; callers hold r.mu.
func (r *Registry) runsLocked() []uint32 {
	out := make([]uint32, 0, len(r.runs))
	for run := range r.runs {
		out = append(out, run)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// GoodRunList is the published set of analysable runs: the scope of every
// physics result derived from the sample.
type GoodRunList struct {
	// Name and Version identify the list; analyses cite both.
	Name    string   `json:"name"`
	Version string   `json:"version"`
	Runs    []uint32 `json:"runs"`
	// LumiPb is the integrated luminosity of the listed runs, frozen at
	// publication so the list is self-contained.
	LumiPb float64 `json:"lumi_pb"`
}

// Contains reports whether a run is in the list.
func (g *GoodRunList) Contains(run uint32) bool {
	i := sort.Search(len(g.Runs), func(i int) bool { return g.Runs[i] >= run })
	return i < len(g.Runs) && g.Runs[i] == run
}

// BuildGoodRunList publishes the registry's good runs under a name and
// version.
func (r *Registry) BuildGoodRunList(name, version string) *GoodRunList {
	r.mu.RLock()
	defer r.mu.RUnlock()
	g := &GoodRunList{Name: name, Version: version}
	for _, run := range r.runsLocked() {
		rec := r.runs[run]
		if rec.Quality == QualityGood {
			g.Runs = append(g.Runs, run)
			g.LumiPb += rec.LumiPb
		}
	}
	return g
}

// Encode serializes the list for archiving.
func (g *GoodRunList) Encode() ([]byte, error) {
	if g.Name == "" || g.Version == "" {
		return nil, fmt.Errorf("runs: good-run list needs a name and version")
	}
	return json.MarshalIndent(g, "", "  ")
}

// DecodeGoodRunList parses an archived list, verifying the runs are
// sorted and unique.
func DecodeGoodRunList(data []byte) (*GoodRunList, error) {
	var g GoodRunList
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("runs: parsing good-run list: %w", err)
	}
	for i := 1; i < len(g.Runs); i++ {
		if g.Runs[i] <= g.Runs[i-1] {
			return nil, fmt.Errorf("runs: list %q not sorted/unique at %d", g.Name, i)
		}
	}
	return &g, nil
}

// SelectEvents keeps the events whose run is in the list: the data-quality
// filter at the head of every analysis chain.
func (g *GoodRunList) SelectEvents(events []*datamodel.Event) []*datamodel.Event {
	var out []*datamodel.Event
	for _, e := range events {
		if g.Contains(e.Run) {
			out = append(out, e)
		}
	}
	return out
}

// WriteJSON persists the registry.
func (r *Registry) WriteJSON(w io.Writer) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var all []*Record
	for _, run := range r.runsLocked() {
		all = append(all, r.runs[run])
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(all)
}

// ReadJSON loads a registry.
func ReadJSON(rd io.Reader) (*Registry, error) {
	var all []*Record
	if err := json.NewDecoder(rd).Decode(&all); err != nil {
		return nil, fmt.Errorf("runs: parsing registry: %w", err)
	}
	r := NewRegistry()
	for _, rec := range all {
		if _, dup := r.runs[rec.Run]; dup {
			return nil, fmt.Errorf("runs: duplicate run %d on load", rec.Run)
		}
		cp := *rec
		r.runs[rec.Run] = &cp
	}
	return r, nil
}
