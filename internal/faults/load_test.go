package faults

import (
	"context"
	"reflect"
	"testing"
	"time"

	"daspos/internal/leshouches"
)

// tmodel/tresult stand in for recast's ModelSpec/Result: SlowBackend is
// generic exactly so this package (and its tests) need no recast import.
type tmodel struct{ Events int }

type tresult struct{ Generated int }

type countingBackend struct {
	calls int
}

func (c *countingBackend) Process(ctx context.Context, model tmodel, record *leshouches.AnalysisRecord) (*tresult, error) {
	c.calls++
	return &tresult{Generated: model.Events}, nil
}

func (c *countingBackend) ConfigDigest() string { return "counting-v1" }

func TestSlowBackendInjectsLatencyAndFaults(t *testing.T) {
	inner := &countingBackend{}
	inj := NewInjector(7).WithLatencyRange(time.Millisecond, 5*time.Millisecond)
	sb := &SlowBackend[tmodel, *tresult]{Inner: inner, Inj: inj}

	start := time.Now()
	if _, err := sb.Process(context.Background(), tmodel{Events: 3}, nil); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < time.Millisecond {
		t.Fatalf("no latency injected: %v", elapsed)
	}
	if inner.calls != 1 {
		t.Fatalf("inner ran %d times, want 1", inner.calls)
	}

	// A scheduled fault fails without reaching the chain.
	inj.FailNext("process", 1)
	if _, err := sb.Process(context.Background(), tmodel{}, nil); err == nil {
		t.Fatal("scheduled fault not injected")
	}
	if inner.calls != 1 {
		t.Fatal("inner ran behind an injected fault")
	}

	// Latency respects the request deadline: a dead context surfaces as
	// its error, and the chain never runs.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sb.Process(ctx, tmodel{}, nil); err != context.Canceled {
		t.Fatalf("cancelled process = %v, want context.Canceled", err)
	}
	if inner.calls != 1 {
		t.Fatal("inner ran under a dead context")
	}

	if got := sb.ConfigDigest(); got != "counting-v1" {
		t.Fatalf("ConfigDigest not forwarded: %q", got)
	}
}

func TestWithLatencyRangeBounds(t *testing.T) {
	inj := NewInjector(3).WithLatencyRange(2*time.Millisecond, 9*time.Millisecond)
	for i := 0; i < 200; i++ {
		out := inj.Decide("op")
		if out.Latency < 2*time.Millisecond || out.Latency > 9*time.Millisecond {
			t.Fatalf("latency %v outside [2ms, 9ms]", out.Latency)
		}
	}
	// A degenerate range is a fixed delay.
	fixed := NewInjector(3).WithLatencyRange(4*time.Millisecond, 4*time.Millisecond)
	if out := fixed.Decide("op"); out.Latency != 4*time.Millisecond {
		t.Fatalf("degenerate range latency = %v, want 4ms", out.Latency)
	}
}

func TestMixedTenantScheduleShapes(t *testing.T) {
	shapes := []TenantShape{
		{Tenant: "flood", Requests: 40}, // MeanGap 0: all at once
		{Tenant: "alice", Requests: 10, MeanGap: 10 * time.Millisecond, DedupEvery: 5},
		{Tenant: "bob", Requests: 6, MeanGap: 20 * time.Millisecond, Burst: 3},
	}
	sched := MixedTenantSchedule(42, shapes)
	if len(sched) != 56 {
		t.Fatalf("schedule has %d arrivals, want 56", len(sched))
	}

	// Determinism: the same (seed, shapes) yields the identical timeline.
	if again := MixedTenantSchedule(42, shapes); !reflect.DeepEqual(sched, again) {
		t.Fatal("schedule not reproducible for a fixed seed")
	}
	if other := MixedTenantSchedule(43, shapes); reflect.DeepEqual(sched, other) {
		t.Fatal("seed does not influence the schedule")
	}

	perTenant := map[string][]Arrival{}
	for i := 1; i < len(sched); i++ {
		if sched[i].At < sched[i-1].At {
			t.Fatal("schedule not sorted by offset")
		}
	}
	for _, a := range sched {
		perTenant[a.Tenant] = append(perTenant[a.Tenant], a)
	}

	// The flooder arrives in one burst at t=0.
	for _, a := range perTenant["flood"] {
		if a.At != 0 {
			t.Fatalf("flood arrival at %v, want 0", a.At)
		}
	}
	// Gaps are bounded around the mean: each of alice's inter-arrival gaps
	// lies in [MeanGap/2, 3*MeanGap/2].
	alice := perTenant["alice"]
	for i := 1; i < len(alice); i++ {
		gap := alice[i].At - alice[i-1].At
		if gap < 5*time.Millisecond || gap > 15*time.Millisecond {
			t.Fatalf("alice gap %v outside [5ms, 15ms]", gap)
		}
	}
	// DedupEvery=5 over 10 requests repeats the first seed twice (i=0, 5):
	// exactly one duplicate pair.
	seeds := map[uint64]int{}
	for _, a := range alice {
		seeds[a.ModelSeed]++
	}
	if seeds[alice[0].ModelSeed] != 2 {
		t.Fatalf("dedup seed repeated %d times, want 2", seeds[alice[0].ModelSeed])
	}
	// Bursts of 3 share an instant: bob has exactly 2 distinct offsets.
	offsets := map[time.Duration]int{}
	for _, a := range perTenant["bob"] {
		offsets[a.At]++
	}
	if len(offsets) != 2 {
		t.Fatalf("bob's burst-3 schedule has %d instants, want 2", len(offsets))
	}
	for at, n := range offsets {
		if n != 3 {
			t.Fatalf("burst at %v has %d arrivals, want 3", at, n)
		}
	}
}
