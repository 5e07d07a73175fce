package faults

import (
	"bytes"
	"errors"
	"testing"

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
		if resilience.Classify(out.Err) != resilience.Transient {
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
