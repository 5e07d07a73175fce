package eventflow

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"daspos/internal/resilience"
)

// intSource returns a source function yielding 0..n-1.
func intSource(n int) func() (int, error) {
	i := 0
	return func() (int, error) {
		if i >= n {
			return 0, io.EOF
		}
		v := i
		i++
		return v, nil
	}
}

func TestOrderPreservedAcrossWorkerCounts(t *testing.T) {
	const n = 500
	for _, workers := range []int{1, 2, 4, 8} {
		p := New(context.Background(), "order", Options{BatchSize: 7})
		s := Source(p, "ints", intSource(n))
		// Perturb completion order: early batches sleep longest.
		m := Map(s, "square", workers, func(v int) (int, bool, error) {
			if v < 40 && v%7 == 0 {
				time.Sleep(time.Duration(40-v) * 100 * time.Microsecond)
			}
			return v * v, true, nil
		})
		c := Collect(m, "collect")
		if err := p.Wait(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(c.Items) != n {
			t.Fatalf("workers=%d: got %d items", workers, len(c.Items))
		}
		for i, v := range c.Items {
			if v != i*i {
				t.Fatalf("workers=%d: item %d = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestFilterDropsEvents(t *testing.T) {
	p := New(context.Background(), "filter", Options{BatchSize: 8})
	s := Source(p, "ints", intSource(100))
	m := Map(s, "evens", 4, func(v int) (int, bool, error) {
		return v, v%2 == 0, nil
	})
	c := Collect(m, "collect")
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(c.Items) != 50 {
		t.Fatalf("got %d events, want 50", len(c.Items))
	}
	for i, v := range c.Items {
		if v != 2*i {
			t.Fatalf("item %d = %d, want %d", i, v, 2*i)
		}
	}
	rep := p.Report()
	if rep.Stages[1].EventsIn != 100 || rep.Stages[1].EventsOut != 50 {
		t.Fatalf("stage counters in=%d out=%d", rep.Stages[1].EventsIn, rep.Stages[1].EventsOut)
	}
}

func TestPerWorkerState(t *testing.T) {
	// Each worker gets its own accumulator; the per-worker factory must be
	// called exactly once per worker and only used from one goroutine.
	const workers = 4
	var made atomic.Int64
	p := New(context.Background(), "state", Options{BatchSize: 4})
	s := Source(p, "ints", intSource(64))
	m := MapWorkers(s, "tag", workers, func(w int) func(int) (int, bool, error) {
		made.Add(1)
		calls := 0 // worker-private state, no synchronization needed
		return func(v int) (int, bool, error) {
			calls++
			_ = calls
			return v, true, nil
		}
	})
	c := Collect(m, "collect")
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if made.Load() != workers {
		t.Fatalf("factory called %d times, want %d", made.Load(), workers)
	}
	if len(c.Items) != 64 {
		t.Fatalf("got %d items", len(c.Items))
	}
}

// TestErrorShortCircuits: the first error a stage returns fails the run,
// a transient-marked one included — no worker is restarted and no batch
// applied twice.
func TestErrorShortCircuits(t *testing.T) {
	for _, sentinel := range []error{
		errors.New("boom"),
		resilience.MarkTransient(errors.New("flaky worker")),
	} {
		p := New(context.Background(), "err", Options{BatchSize: 2})
		s := Source(p, "ints", intSource(10000))
		var failures atomic.Int64
		m := Map(s, "explode", 3, func(v int) (int, bool, error) {
			if v == 21 {
				failures.Add(1)
				return 0, false, sentinel
			}
			return v, true, nil
		})
		var seen atomic.Int64
		Sink(m, "count", func(int) error {
			seen.Add(1)
			return nil
		})
		err := p.Wait()
		if !errors.Is(err, sentinel) {
			t.Fatalf("got %v, want wrapped %v", err, sentinel)
		}
		if n := failures.Load(); n != 1 {
			t.Fatalf("%v: the failing event was applied %d times, want 1", sentinel, n)
		}
		// The sink must not have consumed the whole stream: the failure
		// cancelled the pipeline long before the source's 10000 events.
		if n := seen.Load(); n >= 10000 {
			t.Fatalf("sink saw all %d events despite failure", n)
		}
	}
}

func TestSourceErrorPropagates(t *testing.T) {
	sentinel := errors.New("bad read")
	p := New(context.Background(), "srcerr", Options{})
	i := 0
	s := Source(p, "ints", func() (int, error) {
		if i == 5 {
			return 0, sentinel
		}
		i++
		return i, nil
	})
	Sink(s, "drain", func(int) error { return nil })
	if err := p.Wait(); !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want sentinel", err)
	}
}

func TestSinkErrorPropagates(t *testing.T) {
	sentinel := errors.New("disk full")
	p := New(context.Background(), "sinkerr", Options{BatchSize: 4})
	s := Source(p, "ints", intSource(1000))
	Sink(s, "write", func(v int) error {
		if v == 10 {
			return sentinel
		}
		return nil
	})
	if err := p.Wait(); !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want sentinel", err)
	}
}

func TestEmptySource(t *testing.T) {
	p := New(context.Background(), "empty", Options{})
	s := Source(p, "none", intSource(0))
	m := Map(s, "noop", 4, func(v int) (int, bool, error) { return v, true, nil })
	c := Collect(m, "collect")
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(c.Items) != 0 {
		t.Fatalf("got %d items from empty source", len(c.Items))
	}
}

func TestInFlightBounded(t *testing.T) {
	// A deliberately slow sink backs the whole pipeline up; the parallel
	// stage must never hold more than workers+depth batches in flight.
	const workers = 4
	p := New(context.Background(), "bound", Options{BatchSize: 4})
	s := Source(p, "ints", intSource(400))
	m := Map(s, "fast", workers, func(v int) (int, bool, error) { return v, true, nil })
	Sink(m, "slow", func(v int) error {
		if v%16 == 0 {
			time.Sleep(200 * time.Microsecond)
		}
		return nil
	})
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	rep := p.Report()
	var stage StageReport
	for _, st := range rep.Stages {
		if st.Name == "fast" {
			stage = st
		}
	}
	if stage.MaxInFlight == 0 {
		t.Fatal("no in-flight batches recorded")
	}
	if stage.MaxInFlight > workers+depth {
		t.Fatalf("peak in-flight %d exceeds pool depth %d", stage.MaxInFlight, workers+depth)
	}
}

func TestReportCounters(t *testing.T) {
	p := New(context.Background(), "report", Options{BatchSize: 10})
	s := Source(p, "ints", intSource(95))
	m := Map(s, "id", 2, func(v int) (int, bool, error) { return v, true, nil })
	Sink(m, "drain", func(int) error { return nil })
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	rep := p.Report()
	if rep.Pipeline != "report" || len(rep.Stages) != 3 {
		t.Fatalf("report shape: %+v", rep)
	}
	src := rep.Stages[0]
	if src.EventsOut != 95 || src.Batches != 10 {
		t.Fatalf("source counters: %+v", src)
	}
	sink := rep.Stages[2]
	if sink.EventsIn != 95 {
		t.Fatalf("sink counters: %+v", sink)
	}
	if rep.String() == "" {
		t.Fatal("empty report rendering")
	}
}

// settleGoroutines polls until the goroutine count drops to at most want,
// tolerating the runtime's own lingering helpers.
func settleGoroutines(t *testing.T, want int) int {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestCancellationDrainsCleanly(t *testing.T) {
	// Mid-stream context cancellation must unwind every node — source,
	// dispatcher, workers, reorderer, sink — with no goroutine left
	// blocked on a channel. Run under -race this is also the shutdown
	// data-race check.
	before := runtime.NumGoroutine()
	for round := 0; round < 5; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		p := New(ctx, "cancel", Options{BatchSize: 4})
		released := make(chan struct{})
		var once atomic.Bool
		s := Source(p, "ticks", func() (int, error) {
			return 0, nil // infinite stream
		})
		m := Map(s, "slow", 4, func(v int) (int, bool, error) {
			if once.CompareAndSwap(false, true) {
				close(released) // pipeline is demonstrably mid-stream
			}
			time.Sleep(50 * time.Microsecond)
			return v, true, nil
		})
		Sink(m, "drain", func(int) error { return nil })
		<-released
		cancel()
		if err := p.Wait(); !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: Wait = %v, want context.Canceled", round, err)
		}
	}
	after := settleGoroutines(t, before)
	// Allow a little slack for runtime-internal goroutines, but a leaked
	// pipeline (7+ goroutines per round, 5 rounds) is far outside it.
	if after > before+3 {
		t.Fatalf("goroutines did not settle: before=%d after=%d", before, after)
	}
}

func TestExternalCancelBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := New(ctx, "dead", Options{})
	s := Source(p, "ints", intSource(100))
	Sink(s, "drain", func(int) error { return nil })
	if err := p.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v", err)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func(workers int) string {
		p := New(context.Background(), "det", Options{BatchSize: 3})
		s := Source(p, "ints", intSource(100))
		m := Map(s, "hash", workers, func(v int) (string, bool, error) {
			return fmt.Sprintf("%03d", v*7%100), v%3 != 0, nil
		})
		c := Collect(m, "collect")
		if err := p.Wait(); err != nil {
			t.Fatal(err)
		}
		out := ""
		for _, s := range c.Items {
			out += s
		}
		return out
	}
	want := run(1)
	for _, w := range []int{2, 5, 9} {
		if got := run(w); got != want {
			t.Fatalf("workers=%d output differs from sequential", w)
		}
	}
}

func TestSinkBatchSeesOrderedWholeBatches(t *testing.T) {
	const n = 100
	for _, workers := range []int{1, 4} {
		p := New(context.Background(), "sinkbatch", Options{BatchSize: 9})
		s := Source(p, "ints", intSource(n))
		m := Map(s, "double", workers, func(v int) (int, bool, error) { return 2 * v, true, nil })
		var got []int
		var calls int
		sinkBatch(m, "drain", func(items []int) error {
			calls++
			if len(items) == 0 {
				return errors.New("empty batch delivered")
			}
			got = append(got, items...)
			return nil
		})
		if err := p.Wait(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: got %d items", workers, len(got))
		}
		for i, v := range got {
			if v != 2*i {
				t.Fatalf("workers=%d: item %d = %d, want %d", workers, i, v, 2*i)
			}
		}
		if want := (n + 8) / 9; calls != want {
			t.Fatalf("workers=%d: %d sink calls, want %d", workers, calls, want)
		}
	}
}

func TestSinkBatchErrorPropagates(t *testing.T) {
	p := New(context.Background(), "sinkbatch-err", Options{BatchSize: 4})
	s := Source(p, "ints", intSource(50))
	boom := errors.New("bank full")
	sinkBatch(s, "drain", func(items []int) error {
		if items[0] >= 20 {
			return boom
		}
		return nil
	})
	err := p.Wait()
	if !errors.Is(err, boom) {
		t.Fatalf("want wrapped sink error, got %v", err)
	}
}

// Collected holds a Collect sink's accumulated events. Items must not be
// read before the pipeline's Wait has returned.
type Collected[T any] struct {
	Items []T
}

// Collect terminates the stream into an ordered in-memory slice. It left
// the package proper with its last caller: no pipeline outside these tests
// materializes a whole stream.
func Collect[T any](s *Stream[T], name string) *Collected[T] {
	c := &Collected[T]{}
	Sink(s, name, func(v T) error {
		c.Items = append(c.Items, v)
		return nil
	})
	return c
}
