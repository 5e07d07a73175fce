package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call across a layer boundary, recorded by the
// benchmark's own wrappers. Start and End are nanoseconds since the
// tracer was made; Parent is 0 for a root.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Bytes  int64  `json:"bytes,omitempty"`
	Events int64  `json:"events,omitempty"`
}

// Tracer keeps spans in memory until the workload ends. A nil *Tracer is
// the untraced run: every method is a no-op, so the wrappers cost one nil
// check when tracing is off.
//
// The layers under test carry no span context, so a child finds its parent
// through a binding: the caller binds a key both sides can derive (a blob
// digest, a model seed) to its span before calling down, and the wrapper
// at the next boundary looks the key up.
type Tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []Span
	bound map[string]int64
}

// NewTracer returns an empty tracer whose clock starts now.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now(), spans: make([]Span, 0, 1<<12), bound: make(map[string]int64)}
}

// Reset forgets every span and binding and restarts the clock: what a
// traced pass does between set-up and the timed part.
func (t *Tracer) Reset() {
	t.mu.Lock()
	t.epoch, t.spans, t.bound = time.Now(), t.spans[:0], make(map[string]int64)
	t.mu.Unlock()
}

// Begin opens a span and returns its ID (0 from a nil tracer).
func (t *Tracer) Begin(parent int64, layer, name string) int64 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Layer: layer, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

// End closes a span, recording how many bytes and events it moved.
func (t *Tracer) End(id, bytes, events int64) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	s := &t.spans[id-1]
	s.End, s.Bytes, s.Events = now, bytes, events
	t.mu.Unlock()
}

// Bind names span id as the parent of whatever work is later looked up
// under key; Unbind removes the name once that work is done.
func (t *Tracer) Bind(key string, id int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.bound[key] = id
	t.mu.Unlock()
}

// Unbind forgets a key.
func (t *Tracer) Unbind(key string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	delete(t.bound, key)
	t.mu.Unlock()
}

// Lookup returns the span bound to the first of the keys that is bound,
// or 0.
func (t *Tracer) Lookup(keys ...string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, k := range keys {
		if id, ok := t.bound[k]; ok {
			return id
		}
	}
	return 0
}

// Spans returns a copy of everything recorded so far.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// selfTimes computes, per span ID, the span's duration minus the part of
// its interval that its children cover. Children may overlap each other
// (a quorum write fans out to three nodes at once): the union of their
// intervals, clipped to the parent, is what counts as covered.
func selfTimes(spans []Span) map[int64]int64 {
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// layerSelfSeconds sums self time per layer.
func layerSelfSeconds(spans []Span) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Layer] += float64(self[s.ID]) / 1e9
	}
	return out
}

// wallShares attributes every instant of the trace to the spans that are
// running with no child of their own running — the work actually in
// progress — split evenly when several run at once (three replicas being
// written, two audit workers), and sums the result per row, where row
// names the table row a span belongs to (its layer, usually). Unlike self
// times, which count parallel siblings in full, the shares add up to the
// root span's wall time: this is the where-did-the-time-go table.
func wallShares(spans []Span, row func(Span) string) map[string]float64 {
	type event struct {
		at    int64
		begin bool
		span  int
	}
	events := make([]event, 0, 2*len(spans))
	index := make(map[int64]int, len(spans))
	rows := make([]string, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue // never closed: the call failed before its End
		}
		index[s.ID] = i
		rows[i] = row(s)
		events = append(events, event{s.Start, true, i}, event{s.End, false, i})
	}
	// At one instant, ends come before begins, so back-to-back siblings do
	// not count as overlapping.
	sort.Slice(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		return !events[i].begin && events[j].begin
	})
	var (
		active  = make([]bool, len(spans))
		kids    = make([]int, len(spans))  // running children per span
		counted = make([]bool, len(spans)) // span is among its parent's kids
		leaves  = make(map[string]int)     // running childless spans per row
		nLeaves int
		shares  = make(map[string]float64)
		last    int64
	)
	leaf := func(i, delta int) { leaves[rows[i]] += delta; nLeaves += delta }
	for _, e := range events {
		if dt := e.at - last; dt > 0 && nLeaves > 0 {
			for r, n := range leaves {
				shares[r] += float64(dt) * float64(n) / float64(nLeaves) / 1e9
			}
		}
		last = e.at
		i := e.span
		p, hasParent := index[spans[i].Parent]
		if e.begin {
			active[i] = true
			leaf(i, +1)
			// A parent that already ended (its child outlived it) no
			// longer stands between the child and the wall clock.
			if hasParent && active[p] {
				if kids[p] == 0 {
					leaf(p, -1)
				}
				kids[p]++
				counted[i] = true
			}
			continue
		}
		active[i] = false
		if kids[i] == 0 {
			leaf(i, -1)
		}
		if counted[i] && active[p] {
			if kids[p]--; kids[p] == 0 {
				leaf(p, +1)
			}
		}
	}
	return shares
}

// spanSeconds sums, over the spans matching layer and name (an empty
// name matches all), their durations and their self times, given the
// self times selfTimes computed for the same spans.
func spanSeconds(spans []Span, selfNs map[int64]int64, layer, name string) (total, self float64) {
	for _, s := range spans {
		if s.Layer == layer && (name == "" || s.Name == name) {
			total += float64(s.End-s.Start) / 1e9
			self += float64(selfNs[s.ID]) / 1e9
		}
	}
	return total, self
}

// traceFile is the document written to out/trace-<workload>.json.
type traceFile struct {
	Workload string  `json:"workload"`
	Env      Env     `json:"env"`
	WallS    float64 `json:"wall_s"`
	// LayerSelfS counts parallel work in full; LayerWallS splits each
	// instant among the work in progress and adds up to the root span.
	LayerSelfS map[string]float64 `json:"layer_self_s"`
	LayerWallS map[string]float64 `json:"layer_wall_s"`
	Spans      []Span             `json:"spans"`
}

// writeTrace stores the spans with their per-layer summaries.
func writeTrace(dir, workload string, env Env, wallS float64, spans []Span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("bench: creating %s: %w", dir, err)
	}
	doc := traceFile{
		Workload: workload, Env: env, WallS: wallS,
		LayerSelfS: layerSelfSeconds(spans),
		LayerWallS: wallShares(spans, func(s Span) string { return s.Layer }),
		Spans:      spans,
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return "", fmt.Errorf("bench: encoding trace: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("bench: writing trace: %w", err)
	}
	return path, nil
}
