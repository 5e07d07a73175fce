package resilience

import (
	"errors"
	"sync"
	"time"
)

// BreakerState is the circuit breaker's admission mode.
type BreakerState int

const (
	// Closed admits every call; consecutive failures are counted.
	Closed BreakerState = iota
	// Open rejects every call until the open interval elapses.
	Open
	// HalfOpen has admitted one probe call and admits no other; the
	// probe's outcome decides between re-closing and re-opening.
	HalfOpen
)

// String renders the state for logs and status reports.
func (s BreakerState) String() string {
	switch s {
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// ErrOpen is returned (wrapped, transient) when the breaker rejects a call.
var ErrOpen = errors.New("resilience: circuit open")

// BreakerConfig tunes a Breaker. The zero value gets sane defaults.
type BreakerConfig struct {
	// FailureThreshold is the consecutive-failure count that opens the
	// breaker. Values < 1 mean 5.
	FailureThreshold int
	// OpenInterval is how long the breaker stays open before admitting a
	// half-open probe. Values <= 0 mean 1s.
	OpenInterval time.Duration
	// Now is a test hook for the clock; nil means time.Now.
	Now func() time.Time
}

// Breaker is a circuit breaker: closed → open after FailureThreshold
// consecutive failures, open → half-open when OpenInterval has elapsed and
// one probe is admitted, half-open → closed when the probe succeeds (or
// back to open when it fails). Safe for concurrent use.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    BreakerState
	failures int // consecutive failures while closed
	openedAt time.Time
}

// NewBreaker returns a breaker with the given config (zero fields get
// defaults).
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.FailureThreshold < 1 {
		cfg.FailureThreshold = 5
	}
	if cfg.OpenInterval <= 0 {
		cfg.OpenInterval = time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Breaker{cfg: cfg}
}

// Allow reports whether a call may proceed, admitting a probe when the open
// interval has elapsed. Every admitted call must be reported back through
// Success or Failure, or the half-open probe slot leaks.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if b.cfg.Now().Sub(b.openedAt) < b.cfg.OpenInterval {
			return false
		}
		// Open interval elapsed: become half-open and admit this call
		// as the one probe.
		b.state = HalfOpen
		return true
	default: // HalfOpen: the probe is in flight
		return false
	}
}

// Success reports a successful call.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		b.failures = 0
	case HalfOpen:
		b.state = Closed
	}
}

// Failure reports a failed call.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		b.failures++
		if b.failures >= b.cfg.FailureThreshold {
			b.trip()
		}
	case HalfOpen:
		// A failed probe re-opens immediately.
		b.trip()
	}
}

// trip moves to Open; callers hold b.mu.
func (b *Breaker) trip() {
	b.state = Open
	b.openedAt = b.cfg.Now()
	b.failures = 0
}

// Record forwards an operation outcome: nil counts as success, anything
// else as failure.
func (b *Breaker) Record(err error) {
	if err == nil {
		b.Success()
	} else {
		b.Failure()
	}
}

// State returns the current admission mode (Open may lazily read as Open
// even when the next Allow would admit a probe).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Do guards op with the breaker: rejected calls return ErrOpen (marked
// transient — the service may recover), admitted calls are recorded.
func (b *Breaker) Do(op func() error) error {
	if !b.Allow() {
		return MarkTransient(ErrOpen)
	}
	err := op()
	b.Record(err)
	return err
}
