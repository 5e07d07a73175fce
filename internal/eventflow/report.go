package eventflow

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// stageStats is the live counter block for one node. Everything is atomic
// because workers, dispatcher, and reorderer touch it concurrently.
type stageStats struct {
	name    string
	workers int

	eventsIn  atomic.Int64
	eventsOut atomic.Int64
	batches   atomic.Int64
	busy      atomic.Int64 // cumulative nanoseconds inside user functions

	inFlight    atomic.Int64
	maxInFlight atomic.Int64

	// poolHits/poolMisses meter the stage's container recycler: a hit is a
	// batch served from a drained container returned upstream, a miss is a
	// fresh allocation. Steady state should be all hits — misses after
	// warm-up mean containers are leaking out of the loop (a stage
	// retaining what it should have cloned, or a consumer dropping batches
	// on a cancellation path).
	poolHits   atomic.Int64
	poolMisses atomic.Int64
}

func (p *Pipeline) addStage(name string, workers int) *stageStats {
	st := &stageStats{name: name, workers: workers}
	p.mu.Lock()
	p.stages = append(p.stages, st)
	p.mu.Unlock()
	return st
}

// noteInFlight tracks the number of batches dispatched but not yet emitted
// in order, keeping the high-water mark.
func (s *stageStats) noteInFlight(delta int64) {
	n := s.inFlight.Add(delta)
	for {
		max := s.maxInFlight.Load()
		if n <= max || s.maxInFlight.CompareAndSwap(max, n) {
			return
		}
	}
}

// StageReport is one stage's counters at the end of a run.
type StageReport struct {
	// Name and Workers identify the node and its pool size.
	Name    string
	Workers int
	// EventsIn and EventsOut count events entering and leaving the stage;
	// the difference is what the stage dropped (trigger rejects, skim
	// cuts). Sources have no EventsIn, sinks no EventsOut.
	EventsIn  int64
	EventsOut int64
	// Batches is the number of batches processed.
	Batches int64
	// Busy is the cumulative wall time spent inside the stage's user
	// function, summed over workers; Busy/Wall is the stage's effective
	// parallelism.
	Busy time.Duration
	// MaxInFlight is the peak number of batches held by the stage at once
	// (dispatched but not yet emitted in order). Bounded by
	// Workers + 2, the inter-stage depth: the substrate's memory guarantee.
	MaxInFlight int64
	// Restarts is always 0: a stage worker is never restarted, and the
	// first error of any kind fails the pipeline.
	Restarts int64
	// PoolHits and PoolMisses meter the stage's batch-container recycler:
	// hits are containers reused from the drained-batch pool, misses are
	// fresh allocations. After warm-up (the first MaxInFlight batches are
	// misses by construction) the stream should run on hits alone; misses
	// growing with event count mean containers are escaping the loop.
	PoolHits   int64
	PoolMisses int64
}

// Report is the whole pipeline's execution summary.
type Report struct {
	// Pipeline is the name given to New.
	Pipeline string
	// Wall is the elapsed time from construction to Wait returning.
	Wall time.Duration
	// Stages appear in assembly order.
	Stages []StageReport
}

// Report snapshots the pipeline's counters. Call it after Wait.
func (p *Pipeline) Report() Report {
	p.mu.Lock()
	defer p.mu.Unlock()
	wall := p.wall
	if !p.waited {
		wall = time.Since(p.started) //daspos:wallclock-ok — live-report metric only
	}
	r := Report{Pipeline: p.name, Wall: wall}
	for _, st := range p.stages {
		r.Stages = append(r.Stages, StageReport{
			Name:        st.name,
			Workers:     st.workers,
			EventsIn:    st.eventsIn.Load(),
			EventsOut:   st.eventsOut.Load(),
			Batches:     st.batches.Load(),
			Busy:        time.Duration(st.busy.Load()),
			MaxInFlight: st.maxInFlight.Load(),
			PoolHits:    st.poolHits.Load(),
			PoolMisses:  st.poolMisses.Load(),
		})
	}
	return r
}

// String renders the report as an aligned text block, one line per stage.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pipeline %s: wall %v\n", r.Pipeline, r.Wall.Round(time.Microsecond))
	for _, s := range r.Stages {
		fmt.Fprintf(&b, "  %-14s workers=%d in=%d out=%d batches=%d busy=%v maxInFlight=%d restarts=%d recycle=%d/%d\n",
			s.Name, s.Workers, s.EventsIn, s.EventsOut, s.Batches,
			s.Busy.Round(time.Microsecond), s.MaxInFlight, s.Restarts,
			s.PoolHits, s.PoolMisses)
	}
	return b.String()
}
