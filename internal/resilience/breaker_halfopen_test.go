package resilience

import (
	"errors"
	"testing"
	"time"
)

// TestHalfOpenAdmitsExactlyOneProbe pins the half-open admission
// contract the cluster client depends on: the elapsed open interval
// admits exactly one probe, and every further call is rejected until that
// probe reports back.
// Without this bound, a recovering node would be hammered by the full
// retry fan-in the moment its open interval elapsed.
func TestHalfOpenAdmitsExactlyOneProbe(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1700000000, 0)}
	b := newTestBreaker(1, time.Second, clk)
	b.Failure() // trip
	clk.advance(time.Second)

	if !b.Allow() {
		t.Fatal("elapsed interval did not admit a probe")
	}
	// The probe is in flight and unreported: no matter how many callers
	// pile up, none may pass.
	for i := 0; i < 5; i++ {
		if b.Allow() {
			t.Fatalf("call %d admitted while the probe slot is occupied", i)
		}
	}

	// The probe succeeds: the breaker closes and admission is unbounded
	// again.
	b.Success()
	if b.State() != Closed {
		t.Fatalf("state after successful probe = %v, want closed", b.State())
	}
	for i := 0; i < 3; i++ {
		if !b.Allow() {
			t.Fatal("closed breaker rejected a call")
		}
		b.Success()
	}
}

// TestHalfOpenTransientFailureReopens pins that a transient failure
// during the half-open probe re-opens the breaker immediately — the
// classification does not matter to the breaker, only the outcome: a
// probe that failed for any reason means the node is not back yet, and
// the full open interval must elapse again before the next probe.
func TestHalfOpenTransientFailureReopens(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1700000000, 0)}
	b := newTestBreaker(1, time.Second, clk)
	boom := MarkTransient(errors.New("still flapping"))

	b.Failure()
	clk.advance(time.Second)

	// Drive the probe through Do so the path under test is the one the
	// cluster client actually uses.
	if err := b.Do(func() error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("probe error not passed through: %v", err)
	}
	if b.State() != Open {
		t.Fatalf("state after failed transient probe = %v, want open", b.State())
	}
	// Re-opened means a fresh full interval: a call right now is
	// rejected with ErrOpen, not admitted as another probe.
	if err := b.Do(func() error { return nil }); !errors.Is(err, ErrOpen) {
		t.Fatalf("call after re-open = %v, want ErrOpen", err)
	}
	// Half the interval is still not enough.
	clk.advance(500 * time.Millisecond)
	if b.Allow() {
		t.Fatal("probe admitted before the re-opened interval elapsed")
	}
	// The full interval admits the next probe, and this time recovery
	// sticks.
	clk.advance(500 * time.Millisecond)
	if err := b.Do(func() error { return nil }); err != nil {
		t.Fatalf("recovered probe: %v", err)
	}
	if b.State() != Closed {
		t.Fatalf("state after recovered probe = %v, want closed", b.State())
	}
}
