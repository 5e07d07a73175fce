package resilience

import (
	"context"
	"errors"
	"testing"
	"time"

	"daspos/internal/xrand"
)

func TestClassify(t *testing.T) {
	base := errors.New("boom")
	cases := []struct {
		name string
		err  error
		want Class
	}{
		{"nil", nil, Unknown},
		{"plain", base, Unknown},
		{"transient", MarkTransient(base), Transient},
		{"permanent", MarkPermanent(base), Permanent},
		{"wrapped transient", errorsWrap(MarkTransient(base)), Transient},
		{"outer class wins", MarkPermanent(MarkTransient(base)), Permanent},
		{"deadline", context.DeadlineExceeded, Transient},
		{"canceled", context.Canceled, Transient},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("%s: Classify = %v, want %v", tc.name, got, tc.want)
		}
	}
	if !errors.Is(MarkTransient(base), base) {
		t.Error("MarkTransient broke the error chain")
	}
	if MarkTransient(nil) != nil || MarkPermanent(nil) != nil {
		t.Error("marking nil must stay nil")
	}
}

func errorsWrap(err error) error { return &wrapped{err} }

type wrapped struct{ err error }

func (w *wrapped) Error() string { return "wrapped: " + w.err.Error() }
func (w *wrapped) Unwrap() error { return w.err }

// schedule is the backoff sequence a policy sleeps through if every
// attempt fails.
func schedule(p Policy) []time.Duration {
	rng := xrand.New(0)
	out := []time.Duration{}
	for a := 1; a < p.attempts(); a++ {
		out = append(out, p.Backoff(a, rng))
	}
	return out
}

func TestBackoffSchedule(t *testing.T) {
	cases := []struct {
		name string
		pol  Policy
		want []time.Duration
	}{
		{
			name: "no backoff configured",
			pol:  Policy{MaxAttempts: 3},
			want: []time.Duration{0, 0},
		},
		{
			name: "pure exponential",
			pol:  Policy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond},
			want: []time.Duration{
				10 * time.Millisecond, 20 * time.Millisecond,
				40 * time.Millisecond, 80 * time.Millisecond,
			},
		},
		{
			name: "capped",
			pol:  Policy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 25 * time.Millisecond},
			want: []time.Duration{
				10 * time.Millisecond, 20 * time.Millisecond,
				25 * time.Millisecond, 25 * time.Millisecond,
			},
		},
		{
			name: "single attempt sleeps never",
			pol:  Policy{MaxAttempts: 1, BaseDelay: time.Second},
			want: []time.Duration{},
		},
	}
	for _, tc := range cases {
		got := schedule(tc.pol)
		if len(got) != len(tc.want) {
			t.Errorf("%s: schedule length %d, want %d", tc.name, len(got), len(tc.want))
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: delay[%d] = %v, want %v", tc.name, i, got[i], tc.want[i])
			}
		}
	}
}

func TestBackoffJitterDeterministicAndBounded(t *testing.T) {
	pol := Policy{MaxAttempts: 6, BaseDelay: 100 * time.Millisecond, Jitter: 0.5}
	a := schedule(pol)
	b := schedule(pol)
	raw := schedule(Policy{MaxAttempts: 6, BaseDelay: 100 * time.Millisecond})
	jittered := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("the jitter stream produced different schedules at %d: %v vs %v", i, a[i], b[i])
		}
		// Jitter 0.5 keeps each delay within [0.5d, 1.5d] of the raw value.
		if lo, hi := raw[i]/2, raw[i]*3/2; a[i] < lo || a[i] > hi {
			t.Fatalf("jittered delay %d = %v, outside [%v, %v]", i, a[i], lo, hi)
		}
		jittered = jittered || a[i] != raw[i]
	}
	if !jittered {
		t.Fatal("jitter 0.5 left every delay unchanged")
	}
}

// fastSleep records requested delays without sleeping.
func fastSleep(log *[]time.Duration) func(context.Context, time.Duration) error {
	return func(ctx context.Context, d time.Duration) error {
		*log = append(*log, d)
		return ctx.Err()
	}
}

func TestRetryTransientEventuallySucceeds(t *testing.T) {
	var slept []time.Duration
	calls := 0
	err := Retry(context.Background(), Policy{
		MaxAttempts: 5, BaseDelay: time.Millisecond, Sleep: fastSleep(&slept),
	}, func(context.Context) error {
		calls++
		if calls < 3 {
			return MarkTransient(errors.New("flaky"))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	if len(slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(slept))
	}
}

func TestRetryPermanentAbortsImmediately(t *testing.T) {
	calls := 0
	perm := errors.New("bad request")
	err := Retry(context.Background(), Policy{MaxAttempts: 5}, func(context.Context) error {
		calls++
		return MarkPermanent(perm)
	})
	if calls != 1 {
		t.Fatalf("permanent error retried: %d calls", calls)
	}
	if !errors.Is(err, perm) {
		t.Fatalf("lost the permanent error: %v", err)
	}
}

// TestRetryUnknownRespectsPolicy: an unclassified error is never retried,
// so a policy never loops on a validation error nobody thought to mark.
func TestRetryUnknownRespectsPolicy(t *testing.T) {
	plain := errors.New("unclassified")
	calls := 0
	var slept []time.Duration
	err := Retry(context.Background(), Policy{MaxAttempts: 3, Sleep: fastSleep(&slept)}, func(context.Context) error {
		calls++
		return plain
	})
	if calls != 1 || len(slept) != 0 {
		t.Errorf("calls = %d after %d sleeps, want 1 call and no sleep", calls, len(slept))
	}
	if !errors.Is(err, plain) {
		t.Errorf("lost the error: %v", err)
	}
}

func TestRetryExhaustion(t *testing.T) {
	flaky := errors.New("still down")
	var slept []time.Duration
	err := Retry(context.Background(), Policy{
		MaxAttempts: 4, BaseDelay: time.Millisecond, Sleep: fastSleep(&slept),
	}, func(context.Context) error {
		return MarkTransient(flaky)
	})
	var ex *ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("want ExhaustedError, got %v", err)
	}
	if ex.Attempts != 4 {
		t.Fatalf("attempts = %d, want 4", ex.Attempts)
	}
	if !errors.Is(err, flaky) {
		t.Fatal("exhausted error does not wrap the last failure")
	}
	if len(slept) != 3 {
		t.Fatalf("slept %d times, want 3", len(slept))
	}
}

func TestRetryHonoursCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := Retry(ctx, Policy{
		MaxAttempts: 10, BaseDelay: time.Millisecond,
		Sleep: func(ctx context.Context, d time.Duration) error {
			cancel() // cancel while "sleeping"
			return ctx.Err()
		},
	}, func(context.Context) error {
		calls++
		return MarkTransient(errors.New("flaky"))
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if calls != 1 {
		t.Fatalf("calls after cancel = %d, want 1", calls)
	}
}

func TestRetryAttemptTimeout(t *testing.T) {
	var sawDeadline bool
	err := Retry(context.Background(), Policy{
		MaxAttempts: 2, AttemptTimeout: 5 * time.Millisecond,
		Sleep: func(ctx context.Context, d time.Duration) error { return ctx.Err() },
	}, func(ctx context.Context) error {
		if _, ok := ctx.Deadline(); ok {
			sawDeadline = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawDeadline {
		t.Fatal("attempt did not run under a deadline")
	}
}

// fakeClock is a manual clock for breaker tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestBreaker(threshold int, open time.Duration, clk *fakeClock) *Breaker {
	return NewBreaker(BreakerConfig{
		FailureThreshold: threshold, OpenInterval: open, Now: clk.now,
	})
}

func TestBreakerStateTransitions(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1700000000, 0)}
	b := newTestBreaker(3, time.Second, clk)

	type step struct {
		name      string
		act       func()
		wantState BreakerState
		wantAllow *bool // nil = skip allow check
	}
	yes, no := true, false
	steps := []step{
		{"starts closed", func() {}, Closed, &yes},
		{"failure 1", b.Failure, Closed, &yes},
		{"failure 2", b.Failure, Closed, &yes},
		{"failure 3 trips", b.Failure, Open, &no},
		{"success while open ignored for state", b.Success, Open, &no},
		{"still open before interval", func() { clk.advance(999 * time.Millisecond) }, Open, &no},
		// advance past interval: next Allow admits a probe and flips to half-open.
		{"interval elapsed", func() { clk.advance(2 * time.Millisecond) }, Open, nil},
	}
	for _, s := range steps {
		s.act()
		if got := b.State(); got != s.wantState {
			t.Fatalf("%s: state = %v, want %v", s.name, got, s.wantState)
		}
		if s.wantAllow != nil {
			// Every admission in this table happens while closed, so no
			// probe bookkeeping needs balancing.
			if got := b.Allow(); got != *s.wantAllow {
				t.Fatalf("%s: Allow = %v, want %v", s.name, got, *s.wantAllow)
			}
		}
	}

	// The elapsed interval admits exactly one probe.
	if !b.Allow() {
		t.Fatal("probe not admitted after open interval")
	}
	if b.State() != HalfOpen {
		t.Fatalf("state after probe admission = %v, want half-open", b.State())
	}
	if b.Allow() {
		t.Fatal("second concurrent probe admitted")
	}
	// Probe failure re-opens.
	b.Failure()
	if b.State() != Open {
		t.Fatalf("state after failed probe = %v, want open", b.State())
	}
	// Next interval: probe succeeds, breaker closes.
	clk.advance(time.Second + time.Millisecond)
	if !b.Allow() {
		t.Fatal("probe not admitted after second interval")
	}
	b.Success()
	if b.State() != Closed {
		t.Fatalf("state after successful probe = %v, want closed", b.State())
	}
	if !b.Allow() {
		t.Fatal("closed breaker rejected a call")
	}
}

func TestBreakerSuccessResetsFailureStreak(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1700000000, 0)}
	b := newTestBreaker(3, time.Second, clk)
	b.Failure()
	b.Failure()
	b.Success() // breaks the streak
	b.Failure()
	b.Failure()
	if b.State() != Closed {
		t.Fatal("non-consecutive failures tripped the breaker")
	}
	b.Failure()
	if b.State() != Open {
		t.Fatal("three consecutive failures did not trip")
	}
}

func TestBreakerDo(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1700000000, 0)}
	b := newTestBreaker(1, time.Minute, clk)
	boom := errors.New("down")
	if err := b.Do(func() error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Do did not pass through the op error: %v", err)
	}
	err := b.Do(func() error { return nil })
	if !errors.Is(err, ErrOpen) {
		t.Fatalf("open breaker Do = %v, want ErrOpen", err)
	}
	if Classify(err) != Transient {
		t.Fatal("ErrOpen should classify transient")
	}
}
