// Package resilience provides the failure-handling primitives the
// preservation services share: an error taxonomy (transient vs permanent),
// context-aware retry with exponential backoff and deterministic jitter,
// per-attempt deadlines, and a circuit breaker with probe admission.
//
// Preservation is a sustained-operations problem, not a one-shot copy: the
// Appendix-A maturity tables rate experiments on *surviving* failure
// ("disaster recovery plans are routinely tested and shown to be
// effective"), and the ROADMAP's production-scale north star means every
// cross-service call — replica copies, conditions lookups, RECAST back-end
// runs — must assume the other side can be slow, down, or lying. The
// policies here are deterministic on purpose: jitter is drawn from a
// seeded xrand stream so chaos tests replay bit-identically.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"time"

	"daspos/internal/xrand"
)

// Class partitions errors by how a caller should react.
type Class int

const (
	// Unknown is an unclassified error. Retry never retries it, so a
	// policy never loops on validation errors nobody thought to mark.
	Unknown Class = iota
	// Transient errors are expected to heal on their own: timeouts,
	// dropped connections, injected faults. Retrying is worthwhile.
	Transient
	// Permanent errors will not improve with repetition: validation
	// failures, missing packages, fixity mismatches on the only copy.
	Permanent
)

// String renders the class for logs and attempt histories.
func (c Class) String() string {
	switch c {
	case Transient:
		return "transient"
	case Permanent:
		return "permanent"
	default:
		return "unknown"
	}
}

// classified wraps an error with its class while preserving the chain.
type classified struct {
	err   error
	class Class
}

func (c *classified) Error() string { return c.err.Error() }
func (c *classified) Unwrap() error { return c.err }

// MarkTransient tags an error as transient. A nil error stays nil.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &classified{err: err, class: Transient}
}

// MarkPermanent tags an error as permanent. A nil error stays nil.
func MarkPermanent(err error) error {
	if err == nil {
		return nil
	}
	return &classified{err: err, class: Permanent}
}

// Classify returns the outermost explicit class in the error tree: a
// MarkPermanent around a MarkTransient is permanent.
// Context cancellation and deadline expiry classify as transient: the
// operation may succeed under a fresh deadline, and the retry loop itself
// stops when its own context is done.
func Classify(err error) Class {
	if err == nil {
		return Unknown
	}
	var c *classified
	if errors.As(err, &c) {
		return c.class
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return Transient
	}
	return Unknown
}

// IsPermanent reports whether the error is explicitly permanent.
func IsPermanent(err error) bool { return Classify(err) == Permanent }

// Policy describes a retry schedule. The zero value is usable: it means
// one attempt, no backoff — resilience off.
type Policy struct {
	// MaxAttempts is the total number of tries (first call included).
	// Values < 1 behave as 1.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt.
	BaseDelay time.Duration
	// MaxDelay caps the backoff; 0 means uncapped.
	MaxDelay time.Duration
	// Jitter is the fraction of each delay randomized, in [0, 1]: the
	// delay becomes d*(1-Jitter) + d*Jitter*2*u for uniform u — full
	// jitter at 1, none at 0. The stream is xrand.New(0), so schedules
	// replay exactly.
	Jitter float64
	// AttemptTimeout bounds each attempt with its own deadline; 0 means
	// the attempt inherits the caller's context unchanged.
	AttemptTimeout time.Duration
	// Sleep is a test hook replacing the real inter-attempt sleep. It
	// must honour ctx cancellation. Nil means a timer-backed sleep.
	Sleep func(ctx context.Context, d time.Duration) error
}

// attempts returns the effective attempt budget.
func (p Policy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// Backoff returns the deterministic delay before attempt n+1 given the
// jitter stream rng (attempt is 1-based: Backoff(1, rng) follows the first
// failure); each delay doubles the one before. Exposed so tests can
// table-drive the schedule.
func (p Policy) Backoff(attempt int, rng *xrand.Rand) time.Duration {
	if p.BaseDelay <= 0 {
		return 0
	}
	d := float64(p.BaseDelay)
	for i := 1; i < attempt; i++ {
		d *= 2
		if p.MaxDelay > 0 && d > float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	if p.MaxDelay > 0 && d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if p.Jitter > 0 && rng != nil {
		j := p.Jitter
		if j > 1 {
			j = 1
		}
		d = d*(1-j) + d*j*2*rng.Float64()
	}
	return time.Duration(d)
}

// ExhaustedError reports that a retry loop ran out of attempts. The last
// error is wrapped, so errors.Is/As reach through it.
type ExhaustedError struct {
	Attempts int
	Last     error
}

func (e *ExhaustedError) Error() string {
	return fmt.Sprintf("resilience: %d attempts exhausted: %v", e.Attempts, e.Last)
}

func (e *ExhaustedError) Unwrap() error { return e.Last }

func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Retry runs op under the policy: transient errors are retried with
// backoff until the attempt budget is spent; permanent and unclassified
// errors and context cancellation abort immediately. Each
// attempt runs under its own deadline when AttemptTimeout is set. The
// returned error is nil on success, a permanent or unclassified error
// as-is, or an *ExhaustedError wrapping the last failure.
func Retry(ctx context.Context, p Policy, op func(ctx context.Context) error) error {
	rng := xrand.New(0)
	doSleep := p.Sleep
	if doSleep == nil {
		doSleep = sleep
	}
	n := p.attempts()
	var last error
	for attempt := 1; attempt <= n; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		actx := ctx
		if p.AttemptTimeout > 0 {
			var cancel context.CancelFunc
			actx, cancel = context.WithTimeout(ctx, p.AttemptTimeout)
			err := op(actx)
			cancel()
			last = err
		} else {
			last = op(actx)
		}
		if last == nil {
			return nil
		}
		if Classify(last) != Transient {
			return last
		}
		if attempt == n {
			break
		}
		d := p.Backoff(attempt, rng)
		// A server that said when to come back (Retry-After on a 429/503,
		// a breaker's open interval) knows better than our backoff curve:
		// never knock earlier than invited.
		if hint, ok := RetryAfter(last); ok && hint > d {
			d = hint
		}
		if err := doSleep(ctx, d); err != nil {
			return err
		}
	}
	return &ExhaustedError{Attempts: n, Last: last}
}
