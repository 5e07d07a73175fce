package resilience

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"
)

// Deadline propagation helpers. A client's deadline must travel with its
// request — through the HTTP hop as a relative budget header, and through
// the service as a context deadline — so every layer (admission, queue,
// backend, archive fetch) can refuse or abandon work that can no longer be
// delivered in time. The wire format is a *relative* budget in
// milliseconds rather than an absolute instant, so it survives clock skew
// between requester and service.

// EncodeBudget renders a remaining time budget as a header value
// (integer milliseconds, rounded up so a positive budget never encodes to
// zero). Non-positive budgets encode to "0": already expired.
func EncodeBudget(d time.Duration) string {
	if d <= 0 {
		return "0"
	}
	ms := (d + time.Millisecond - 1) / time.Millisecond
	return strconv.FormatInt(int64(ms), 10)
}

// DecodeBudget parses a budget header value back to a duration. It accepts
// exactly what EncodeBudget writes: a millisecond count that fits a
// Duration (a larger one would wrap, possibly into a negative budget that
// sheds the request as expired), in its one canonical spelling.
func DecodeBudget(s string) (time.Duration, error) {
	ms, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("resilience: malformed deadline budget %.40q: %w", s, err)
	}
	if ms < 0 {
		return 0, fmt.Errorf("resilience: negative deadline budget %q", s)
	}
	if ms > int64(math.MaxInt64/time.Millisecond) {
		return 0, fmt.Errorf("resilience: deadline budget %q overflows", s)
	}
	d := time.Duration(ms) * time.Millisecond
	if EncodeBudget(d) != s {
		return 0, fmt.Errorf("resilience: deadline budget %.40q is not in canonical form", s)
	}
	return d, nil
}

// RemainingBudget reports the time left until the context's deadline,
// measured from now. The second return is false when the context carries
// no deadline.
func RemainingBudget(ctx context.Context, now time.Time) (time.Duration, bool) {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0, false
	}
	return dl.Sub(now), true
}

// retryHinter is implemented by errors that carry the server's own advice
// on when to try again — an HTTP 429/503 Retry-After, a breaker's
// remaining open interval.
type retryHinter interface {
	RetryAfterHint() time.Duration
}

// hintedError attaches a retry-after hint to an error while preserving the
// chain (and, through it, the transient/permanent classification).
type hintedError struct {
	err  error
	hint time.Duration
}

func (h *hintedError) Error() string                 { return h.err.Error() }
func (h *hintedError) Unwrap() error                 { return h.err }
func (h *hintedError) RetryAfterHint() time.Duration { return h.hint }

// WithRetryAfter attaches a retry-after hint to an error. A nil error
// stays nil; a non-positive hint attaches nothing.
func WithRetryAfter(err error, hint time.Duration) error {
	if err == nil || hint <= 0 {
		return err
	}
	return &hintedError{err: err, hint: hint}
}

// RetryAfter extracts the outermost retry-after hint from an error tree,
// walking it as Classify does, so an error that wraps several others keeps
// the hint of any of them. It reports 0, false when no layer offered one.
func RetryAfter(err error) (time.Duration, bool) {
	var h retryHinter
	if errors.As(err, &h) {
		return h.RetryAfterHint(), true
	}
	return 0, false
}
