// Package eventflow is the streaming event-flow substrate underneath the
// processing chain: the paper's "nested levels of processing" (§3.2)
// realized as pipeline stages connected by bounded channels of
// sequence-tagged batches instead of whole-tier in-memory slices.
//
// A pipeline is assembled from three kinds of node:
//
//   - a Source pulls events one at a time from a producer (a generator, a
//     file reader) and packs them into batches on a single goroutine;
//   - a stage (Map / MapWorkers) transforms events with a pool of workers,
//     preserving stream order by reordering completed batches on their
//     sequence tags before emitting them downstream;
//   - a Sink consumes the ordered stream on a single goroutine (a file
//     writer, an accumulator).
//
// Memory stays bounded end to end: every inter-stage channel has a fixed
// capacity and every parallel stage holds at most workers+depth batches in
// flight (a token is acquired before a batch is dispatched and released
// only once the batch has been emitted in order). The first error anywhere
// cancels the shared context and short-circuits the whole pipeline; every
// goroutine selects on that context, so cancellation drains cleanly with
// no leaks. Per-stage counters (events in/out, batches, busy time, peak
// batches in flight) accumulate into a Report for the pipeline tables the
// executables print.
//
// Determinism is a contract, not an accident: stage functions must depend
// only on their input event (per-event random streams are derived with
// xrand.ForEvent), and because batch order is preserved, a pipeline's
// output is byte-identical at any worker count.
package eventflow

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"
)

// Options tunes a pipeline. The zero value selects the defaults.
type Options struct {
	// BatchSize is the number of events packed into one batch (default 32).
	// Larger batches amortize channel traffic; smaller ones bound latency
	// and memory per stage.
	BatchSize int
}

const (
	defaultBatchSize = 32
	// depth is the capacity of every inter-stage channel, and the slack
	// beyond the worker count in each parallel stage's in-flight bound.
	depth = 2
)

// Pipeline owns the shared control state of one assembled pipeline: the
// cancellation context, the first error, the goroutine accounting, and the
// per-stage counters.
type Pipeline struct {
	name      string
	batchSize int

	ctx    context.Context
	cancel context.CancelFunc

	wg sync.WaitGroup

	mu      sync.Mutex
	failErr error
	stages  []*stageStats
	started time.Time
	waited  bool
	wall    time.Duration
}

// New returns an empty pipeline bound to ctx. Cancelling ctx stops every
// node; Wait then returns the context's error.
func New(ctx context.Context, name string, opts Options) *Pipeline {
	if opts.BatchSize <= 0 {
		opts.BatchSize = defaultBatchSize
	}
	pctx, cancel := context.WithCancel(ctx)
	return &Pipeline{
		name:      name,
		batchSize: opts.BatchSize,
		ctx:       pctx,
		cancel:    cancel,
		started:   time.Now(), //daspos:wallclock-ok — pipeline wall-time metric only
	}
}

// Wait blocks until every node has finished and returns the first error
// (nil on clean completion, the context error on external cancellation).
// It must be called exactly once, after the pipeline is fully assembled.
func (p *Pipeline) Wait() error {
	p.wg.Wait()
	p.mu.Lock()
	err := p.failErr
	if !p.waited {
		p.waited = true
		p.wall = time.Since(p.started) //daspos:wallclock-ok — stage-report metric only
	}
	p.mu.Unlock()
	ctxErr := p.ctx.Err()
	p.cancel()
	if err != nil {
		return err
	}
	if ctxErr != nil {
		return ctxErr
	}
	return nil
}

// fail records the first error and cancels the pipeline so every other
// node unwinds.
func (p *Pipeline) fail(err error) {
	p.mu.Lock()
	if p.failErr == nil {
		p.failErr = err
	}
	p.mu.Unlock()
	p.cancel()
}

// spawn runs fn on a tracked goroutine, routing its error into fail.
func (p *Pipeline) spawn(fn func() error) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		if err := fn(); err != nil {
			p.fail(err)
		}
	}()
}

// batch is one sequence-tagged unit of flow. Stages preserve seq (empty
// batches still travel) so a downstream reorderer can restore stream order
// by counting. The box pointer, when set, is the sync.Pool token of the
// items container: it travels with the batch so the consumer can return
// the drained container upstream without boxing a slice header (which
// would itself allocate on every Put).
type batch[T any] struct {
	seq   int
	items []T
	box   *[]T
}

// slicePool recycles batch item containers between a producing stage and
// whoever drains its stream. Ownership handoff, not copying: the producer
// gets a container, fills it, and sends it downstream; the consumer drains
// it and puts it back. put clears the container's full capacity before
// pooling it — that releases pointers for the GC, and it deterministically
// poisons any reference to the container kept past the handoff, so a stage
// inside this package that broke the ownership rule would fail loudly in
// tests instead of corrupting silently.
type slicePool[T any] struct {
	pool sync.Pool
	st   *stageStats
}

// get returns an empty container, recycled when the pool has one (a hit)
// and freshly allocated otherwise (a miss). The returned box is the pool
// token to hand back with the container.
func (sp *slicePool[T]) get(capacity int) ([]T, *[]T) {
	if v, ok := sp.pool.Get().(*[]T); ok {
		sp.st.poolHits.Add(1)
		return (*v)[:0], v
	}
	sp.st.poolMisses.Add(1)
	items := make([]T, 0, capacity)
	return items, &items
}

// put clears and pools a drained container.
func (sp *slicePool[T]) put(items []T, box *[]T) {
	if box == nil {
		return
	}
	full := items[:cap(items)]
	clear(full)
	*box = full[:0]
	sp.pool.Put(box)
}

// Stream is a typed, ordered flow of batches out of one node. The pool is
// owned by the producing stage; the stream's single consumer returns
// drained containers through it.
type Stream[T any] struct {
	p    *Pipeline
	ch   chan batch[T]
	pool *slicePool[T]
}

// recycle returns a drained batch's container to the producing stage's
// pool. Callers must be done with the container (though not necessarily
// with the elements it held — those were copied out or carry their own
// ownership).
func (s *Stream[T]) recycle(b batch[T]) {
	if s.pool != nil {
		s.pool.put(b.items, b.box)
	}
}

// Source starts the pipeline's producer: next is called repeatedly on a
// single goroutine and its events are packed into batches. Returning
// io.EOF ends the stream cleanly; any other error aborts the pipeline.
func Source[T any](p *Pipeline, name string, next func() (T, error)) *Stream[T] {
	st := p.addStage(name, 1)
	pool := &slicePool[T]{st: st}
	out := make(chan batch[T], depth)
	p.spawn(func() error {
		defer close(out)
		seq := 0
		items, box := pool.get(p.batchSize)
		flush := func() bool {
			if len(items) == 0 {
				return true
			}
			b := batch[T]{seq: seq, items: items, box: box}
			seq++
			st.batches.Add(1)
			st.eventsOut.Add(int64(len(items)))
			select {
			case out <- b:
			case <-p.ctx.Done():
				return false
			}
			items, box = pool.get(p.batchSize)
			return true
		}
		for {
			if p.ctx.Err() != nil {
				return nil
			}
			start := time.Now() //daspos:wallclock-ok — per-stage busy metric only
			v, err := next()
			st.busy.Add(int64(time.Since(start))) //daspos:wallclock-ok
			if err == io.EOF {
				flush()
				return nil
			}
			if err != nil {
				return fmt.Errorf("eventflow: source %s: %w", name, err)
			}
			items = append(items, v)
			if len(items) >= p.batchSize {
				if !flush() {
					return nil
				}
			}
		}
	})
	return &Stream[T]{p: p, ch: out, pool: pool}
}

// Map adds a stage applying fn to every event with the given number of
// workers, preserving stream order. fn returns the transformed event and a
// keep flag; keep=false drops the event from the stream (a trigger or skim
// decision). fn must be safe for concurrent use when workers > 1 and must
// depend only on its input event, or determinism across worker counts is
// lost.
func Map[In, Out any](s *Stream[In], name string, workers int, fn func(In) (Out, bool, error)) *Stream[Out] {
	return MapWorkers(s, name, workers, func(int) func(In) (Out, bool, error) { return fn })
}

// MapWorkers is Map for stages whose transform carries per-worker state (a
// reconstructor instance, a scratch buffer): newFn is invoked once per
// worker and each returned function is only ever called from that worker's
// goroutine.
func MapWorkers[In, Out any](s *Stream[In], name string, workers int, newFn func(worker int) func(In) (Out, bool, error)) *Stream[Out] {
	return mapBatches(s, name, workers, func(worker int) func([]In, []Out) ([]Out, error) {
		fn := newFn(worker)
		return func(in []In, out []Out) ([]Out, error) {
			for _, v := range in {
				o, keep, err := fn(v)
				if err != nil {
					return out, err
				}
				if keep {
					out = append(out, o)
				}
			}
			return out, nil
		}
	})
}

// mapBatches is the batch-granularity stage underneath Map and MapWorkers.
// newFn is invoked once per worker; the returned function receives the
// input items and an empty output container (recycled, with whatever
// capacity its previous trip accumulated) and returns the filled container.
//
// It is unexported because of what it hands out: `in` belongs to the stage
// only for the duration of the call — the container is recycled and cleared
// as soon as the function returns, so a function that kept `in` (or any
// sub-slice of it) would read zeroed data. The per-event wrappers above pass
// their callers one element at a time, so no caller outside this package
// ever holds a container and the rule holds by construction.
func mapBatches[In, Out any](s *Stream[In], name string, workers int, newFn func(worker int) func(in []In, out []Out) ([]Out, error)) *Stream[Out] {
	p := s.p
	if workers < 1 {
		workers = 1
	}
	st := p.addStage(name, workers)
	pool := &slicePool[Out]{st: st}

	apply := func(fn func([]In, []Out) ([]Out, error), b batch[In]) (batch[Out], error) {
		start := time.Now() //daspos:wallclock-ok — per-stage busy metric only
		items, box := pool.get(len(b.items))
		outItems, err := fn(b.items, items)
		st.busy.Add(int64(time.Since(start))) //daspos:wallclock-ok
		if err != nil {
			pool.put(outItems, box)
			return batch[Out]{}, fmt.Errorf("eventflow: stage %s: %w", name, err)
		}
		ob := batch[Out]{seq: b.seq, items: outItems, box: box}
		st.batches.Add(1)
		st.eventsIn.Add(int64(len(b.items)))
		st.eventsOut.Add(int64(len(outItems)))
		// The input container is drained: hand it back upstream.
		s.recycle(b)
		return ob, nil
	}

	out := make(chan batch[Out], depth)
	if workers == 1 {
		fn := newFn(0)
		p.spawn(func() error {
			defer close(out)
			for b := range s.ch {
				ob, err := apply(fn, b)
				if err != nil {
					return err
				}
				select {
				case out <- ob:
				case <-p.ctx.Done():
					return nil
				}
			}
			return nil
		})
		return &Stream[Out]{p: p, ch: out, pool: pool}
	}

	// Parallel stage: dispatcher → worker pool → reorderer. The token
	// channel bounds the batches in flight (dispatched but not yet emitted
	// in order) to workers+depth, which is what keeps memory bounded when
	// one slow batch holds up emission.
	bound := workers + depth
	jobs := make(chan batch[In])
	results := make(chan batch[Out], bound)
	tokens := make(chan struct{}, bound)

	p.spawn(func() error { // dispatcher
		defer close(jobs)
		for b := range s.ch {
			select {
			case tokens <- struct{}{}:
			case <-p.ctx.Done():
				return nil
			}
			st.noteInFlight(1)
			select {
			case jobs <- b:
			case <-p.ctx.Done():
				return nil
			}
		}
		return nil
	})

	var workerWG sync.WaitGroup
	workerWG.Add(workers)
	for w := 0; w < workers; w++ {
		fn := newFn(w)
		p.spawn(func() error {
			defer workerWG.Done()
			for b := range jobs {
				ob, err := apply(fn, b)
				if err != nil {
					return err
				}
				select {
				case results <- ob:
				case <-p.ctx.Done():
					return nil
				}
			}
			return nil
		})
	}
	p.spawn(func() error { // closes results once the pool drains
		workerWG.Wait()
		close(results)
		return nil
	})

	p.spawn(func() error { // reorderer
		defer close(out)
		// Completed batches wait in a ring indexed by sequence number.
		// The token bound guarantees every outstanding seq lies in
		// [next, next+bound), so slots never collide — and unlike a map,
		// the ring is two fixed allocations for the stage's lifetime,
		// which is what keeps the merge's cost flat as workers grow.
		ring := make([]batch[Out], bound)
		full := make([]bool, bound)
		next := 0
		for ob := range results {
			slot := ob.seq % bound
			ring[slot], full[slot] = ob, true
			for full[next%bound] {
				i := next % bound
				b := ring[i]
				ring[i], full[i] = batch[Out]{}, false
				next++
				select {
				case out <- b:
				case <-p.ctx.Done():
					return nil
				}
				st.noteInFlight(-1)
				// A token was acquired for every dispatched batch, so this
				// receive never blocks.
				<-tokens
			}
		}
		return nil
	})
	return &Stream[Out]{p: p, ch: out, pool: pool}
}

// Sink terminates the stream: fn is called for every event, in stream
// order, on a single goroutine.
func Sink[T any](s *Stream[T], name string, fn func(T) error) {
	sinkBatch(s, name, func(items []T) error {
		for _, v := range items {
			if err := fn(v); err != nil {
				return err
			}
		}
		return nil
	})
}

// sinkBatch is the consumer underneath Sink: fn receives whole in-order
// batches, and like mapBatches' `in` the container is recycled and cleared
// the moment fn returns.
func sinkBatch[T any](s *Stream[T], name string, fn func([]T) error) {
	p := s.p
	st := p.addStage(name, 1)
	p.spawn(func() error {
		for b := range s.ch {
			start := time.Now() //daspos:wallclock-ok — per-stage busy metric only
			err := fn(b.items)
			st.busy.Add(int64(time.Since(start))) //daspos:wallclock-ok
			if err != nil {
				return fmt.Errorf("eventflow: sink %s: %w", name, err)
			}
			st.batches.Add(1)
			st.eventsIn.Add(int64(len(b.items)))
			// The sink consumed the batch: its container goes back upstream.
			s.recycle(b)
		}
		return nil
	})
}
