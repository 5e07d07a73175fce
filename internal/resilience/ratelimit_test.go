package resilience

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// limiterClock is a hand-cranked clock for deterministic limiter schedules.
type limiterClock struct{ t time.Time }

func (c *limiterClock) now() time.Time          { return c.t }
func (c *limiterClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestBucket(rate, burst float64) (*TokenBucket, *limiterClock) {
	clk := &limiterClock{t: time.Unix(1000, 0)}
	tb := NewTokenBucket(rate, burst)
	tb.SetClock(clk.now)
	return tb, clk
}

func TestTokenBucketBurstThenMetered(t *testing.T) {
	tb, clk := newTestBucket(10, 3) // 10/s, burst 3
	for i := 0; i < 3; i++ {
		if ok, _ := tb.Take(); !ok {
			t.Fatalf("burst take %d refused", i)
		}
	}
	ok, retry := tb.Take()
	if ok {
		t.Fatal("empty bucket admitted")
	}
	if retry <= 0 || retry > 100*time.Millisecond {
		t.Fatalf("retry-after = %v, want (0, 100ms]", retry)
	}
	// After exactly one token's worth of time, one take succeeds and the
	// next is refused again.
	clk.advance(100 * time.Millisecond)
	if ok, _ := tb.Take(); !ok {
		t.Fatal("refilled token refused")
	}
	if ok, _ := tb.Take(); ok {
		t.Fatal("second take admitted after a one-token refill")
	}
}

func TestTokenBucketCapsAtBurst(t *testing.T) {
	tb, clk := newTestBucket(100, 2)
	if ok, _ := tb.Take(); !ok {
		t.Fatal("initial take refused")
	}
	// A long idle period must not bank more than burst.
	clk.advance(time.Hour)
	for i := 0; i < 2; i++ {
		if ok, _ := tb.Take(); !ok {
			t.Fatalf("take %d refused after idle refill", i)
		}
	}
	if ok, _ := tb.Take(); ok {
		t.Fatal("idle period banked more than burst")
	}
}

func TestTokenBucketUnlimited(t *testing.T) {
	tb, _ := newTestBucket(0, 1)
	for i := 0; i < 1000; i++ {
		if ok, retry := tb.Take(); !ok || retry != 0 {
			t.Fatalf("unlimited bucket refused take %d", i)
		}
	}
}

func TestBudgetRoundTrip(t *testing.T) {
	for _, d := range []time.Duration{time.Millisecond, 250 * time.Millisecond, 30 * time.Second} {
		got, err := DecodeBudget(EncodeBudget(d))
		if err != nil {
			t.Fatal(err)
		}
		if got != d {
			t.Fatalf("round trip %v -> %v", d, got)
		}
	}
	// Sub-millisecond budgets round up, never to zero.
	if EncodeBudget(10*time.Microsecond) != "1" {
		t.Fatalf("sub-ms budget encoded to %q, want 1", EncodeBudget(10*time.Microsecond))
	}
	if EncodeBudget(-time.Second) != "0" {
		t.Fatal("expired budget must encode to 0")
	}
	if _, err := DecodeBudget("banana"); err == nil {
		t.Fatal("malformed budget accepted")
	}
	if _, err := DecodeBudget("-5"); err == nil {
		t.Fatal("negative budget accepted")
	}
}

func TestRemainingBudget(t *testing.T) {
	now := time.Unix(2000, 0)
	if _, ok := RemainingBudget(context.Background(), now); ok {
		t.Fatal("background context reported a deadline")
	}
	ctx, cancel := context.WithDeadline(context.Background(), now.Add(3*time.Second))
	defer cancel()
	d, ok := RemainingBudget(ctx, now)
	if !ok || d != 3*time.Second {
		t.Fatalf("remaining = %v %v, want 3s true", d, ok)
	}
}

func TestRetryAfterHintPreservesClassification(t *testing.T) {
	base := MarkTransient(errors.New("throttled"))
	hinted := WithRetryAfter(base, 2*time.Second)
	if Classify(hinted) != Transient {
		t.Fatal("hint wrapper lost the transient classification")
	}
	if d, ok := RetryAfter(hinted); !ok || d != 2*time.Second {
		t.Fatalf("hint = %v %v, want 2s true", d, ok)
	}
	if _, ok := RetryAfter(base); ok {
		t.Fatal("unhinted error reported a hint")
	}
	// An error that wraps two others, the shape errclass's testdata shows:
	// the hint below the second %w is found, as Classify finds the class.
	sentinel := errors.New("fetch failed")
	joined := fmt.Errorf("%w: fetching: %w", sentinel, WithRetryAfter(MarkTransient(errors.New("x")), 2*time.Second))
	if Classify(joined) != Transient {
		t.Fatal("a two-cause error lost the transient classification")
	}
	if d, ok := RetryAfter(joined); !ok || d != 2*time.Second {
		t.Fatalf("two-cause hint = %v %v, want 2s true", d, ok)
	}
	// The outermost hint wins.
	if d, ok := RetryAfter(WithRetryAfter(WithRetryAfter(base, time.Second), 5*time.Second)); !ok || d != 5*time.Second {
		t.Fatalf("nested hints = %v %v, want the outer 5s", d, ok)
	}
	if WithRetryAfter(nil, time.Second) != nil {
		t.Fatal("nil error grew a hint")
	}
	if got := WithRetryAfter(base, 0); got != base {
		t.Fatal("zero hint wrapped the error")
	}
}

func TestRetryHonorsRetryAfterHint(t *testing.T) {
	// The server's 2s hint must override the policy's 1ms backoff.
	var slept []time.Duration
	pol := Policy{
		MaxAttempts: 3,
		BaseDelay:   time.Millisecond,
		Sleep: func(ctx context.Context, d time.Duration) error {
			slept = append(slept, d)
			return ctx.Err()
		},
	}
	calls := 0
	err := Retry(context.Background(), pol, func(context.Context) error {
		calls++
		if calls < 3 {
			return WithRetryAfter(MarkTransient(errors.New("throttled")), 2*time.Second)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(slept))
	}
	for i, d := range slept {
		if d != 2*time.Second {
			t.Fatalf("sleep %d = %v, want the server's 2s hint", i, d)
		}
	}
}
