package resilience

import (
	"sync"
	"time"
)

// TokenBucket is a classic rate limiter: tokens accrue at Rate per second
// up to Burst, and each admitted call spends one. It is the per-tenant
// admission primitive of the RECAST front door — a tenant that floods
// spends its burst and is then metered down to its sustained rate, while
// every other tenant's bucket is untouched.
//
// The clock is injectable so admission schedules replay deterministically
// in tests; production buckets run on time.Now. Safe for concurrent use.
type TokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64 // bucket capacity
	tokens float64
	last   time.Time
	now    func() time.Time
}

// NewTokenBucket returns a full bucket. Rate values <= 0 mean an unlimited
// bucket (every Take admits); burst values < 1 mean 1.
func NewTokenBucket(rate, burst float64) *TokenBucket {
	if burst < 1 {
		burst = 1
	}
	return &TokenBucket{rate: rate, burst: burst, tokens: burst, now: time.Now}
}

// SetClock replaces the bucket's clock — the test hook that makes refill
// schedules reproducible.
func (tb *TokenBucket) SetClock(now func() time.Time) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	tb.now = now
	tb.last = time.Time{}
}

// refillLocked accrues tokens for the time elapsed since the last call.
func (tb *TokenBucket) refillLocked(now time.Time) {
	if tb.last.IsZero() {
		tb.last = now
		return
	}
	if dt := now.Sub(tb.last).Seconds(); dt > 0 {
		tb.tokens += dt * tb.rate
		if tb.tokens > tb.burst {
			tb.tokens = tb.burst
		}
	}
	tb.last = now
}

// Take spends one token when available. When the bucket is empty it
// reports false and how long the caller should wait before the next token
// exists — the Retry-After the front door sends with a 429.
func (tb *TokenBucket) Take() (ok bool, retryAfter time.Duration) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if tb.rate <= 0 {
		return true, 0
	}
	tb.refillLocked(tb.now())
	if tb.tokens >= 1 {
		tb.tokens--
		return true, 0
	}
	deficit := 1 - tb.tokens
	return false, time.Duration(deficit / tb.rate * float64(time.Second))
}
