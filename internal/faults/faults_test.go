package faults

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"daspos/internal/cas"
	"daspos/internal/conditions"
	"daspos/internal/resilience"
)

func TestInjectorDeterministic(t *testing.T) {
	run := func() []bool {
		in := NewInjector(7).WithErrorRate(0.3)
		var outcomes []bool
		for i := 0; i < 200; i++ {
			outcomes = append(outcomes, in.Decide("op").Err != nil)
		}
		return outcomes
	}
	a, b := run(), run()
	fails := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at op %d", i)
		}
		if a[i] {
			fails++
		}
	}
	// 30% of 200 with generous slack.
	if fails < 30 || fails > 90 {
		t.Fatalf("error rate 0.3 injected %d/200 failures", fails)
	}
}

func TestFailNextSchedule(t *testing.T) {
	in := NewInjector(1)
	in.FailNext("get", 3)
	for i := 0; i < 3; i++ {
		out := in.Decide("get")
		if out.Err == nil {
			t.Fatalf("scheduled failure %d did not fire", i)
		}
		if !resilience.IsTransient(out.Err) {
			t.Fatal("injected fault not marked transient")
		}
		if !errors.Is(out.Err, ErrInjected) {
			t.Fatal("injected fault does not wrap ErrInjected")
		}
	}
	if in.Decide("get").Err != nil {
		t.Fatal("fault fired after the schedule was spent")
	}
	// Schedules are per-operation.
	in.FailNext("put", 1)
	if in.Decide("get").Err != nil {
		t.Fatal("put schedule leaked into get")
	}
	if in.Decide("put").Err == nil {
		t.Fatal("put schedule did not fire")
	}
}

func TestCorruptBytes(t *testing.T) {
	orig := []byte("pristine payload")
	cp := CorruptBytes(orig)
	if bytes.Equal(orig, cp) {
		t.Fatal("corruption was a no-op")
	}
	if string(orig) != "pristine payload" {
		t.Fatal("original mutated")
	}
	if len(CorruptBytes(nil)) != 0 {
		t.Fatal("empty input should stay empty")
	}
}

func TestFlakyBackendInjectsAndRecovers(t *testing.T) {
	inj := NewInjector(3)
	store := cas.NewStoreWith(&FlakyBackend{Inner: cas.NewShardedBackend(1), Inj: inj})
	d, err := store.Put([]byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	inj.FailNext("get", 2)
	if _, err := store.Get(d); err == nil {
		t.Fatal("injected get fault not surfaced")
	} else if !resilience.IsTransient(err) {
		t.Fatalf("backend fault lost its transient class through the store: %v", err)
	}
	if _, err := store.Get(d); err == nil {
		t.Fatal("second scheduled fault not surfaced")
	}
	data, err := store.Get(d)
	if err != nil {
		t.Fatalf("recovery read failed: %v", err)
	}
	if string(data) != "payload" {
		t.Fatalf("recovered wrong bytes: %q", data)
	}
}

func TestFlakyBackendCorruptionTripsFixity(t *testing.T) {
	inj := NewInjector(5).WithCorruptRate(1)
	store := cas.NewStoreWith(&FlakyBackend{Inner: cas.NewShardedBackend(1), Inj: inj})
	// Put corrupts in flight: the stored bytes are damaged, and the
	// fixity check catches it on read (turn corruption off for the read
	// so the read path itself is clean).
	d, err := store.Put([]byte("will rot in transit"))
	if err != nil {
		t.Fatal(err)
	}
	inj.WithCorruptRate(0)
	_, err = store.Get(d)
	if !errors.Is(err, cas.ErrCorrupt) {
		t.Fatalf("in-flight corruption not caught by fixity: %v", err)
	}
	var ce *cas.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("fixity failure is not a typed CorruptError: %v", err)
	}
}

func TestFlakyResolverLatencyHitsDeadline(t *testing.T) {
	db := conditions.NewDB()
	if err := db.Store("ecal/scale", "v1", conditions.IoV{First: 1, Last: 10},
		conditions.Payload{"scale": 1.01}); err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(2).WithLatency(50 * time.Millisecond)
	flaky := &FlakyResolver{Inner: conditions.DBResolver{DB: db}, Inj: inj}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := flaky.Lookup(ctx, "ecal/scale", "v1", 5)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled lookup did not time out: %v", err)
	}
	// Without the stall, the lookup answers.
	inj.WithLatency(0)
	p, err := flaky.Lookup(context.Background(), "ecal/scale", "v1", 5)
	if err != nil {
		t.Fatal(err)
	}
	if p["scale"] != 1.01 {
		t.Fatalf("wrong payload: %v", p)
	}
}
