// Package faults is the deterministic fault injector behind the chaos
// tests: seed-driven error rates, latency, payload corruption, partitions
// and N-failures-then-succeed schedules, exposed as wrappers around the
// RECAST back end and the HTTP transport, plus the kill points the crash
// sweeps arm.
//
// Determinism is the point. The DPHEP framing of preservation as a
// sustained-operations problem means the failure drills themselves must be
// preservable: a chaos run is seeded through internal/xrand, so a failing
// schedule replays bit-identically in CI and on a laptop years later —
// the "routinely tested and shown to be effective" clause of the
// Appendix-A level-5 disaster-recovery rating, made executable.
package faults

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"daspos/internal/resilience"
	"daspos/internal/xrand"
)

// ErrInjected is the root of every injected fault; injected errors are
// marked transient, since they model faults that heal (network blips,
// brown-outs, scratched reads that succeed on retry).
var ErrInjected = errors.New("faults: injected fault")

// Outcome is the injector's decision for one operation.
type Outcome struct {
	// Err, when non-nil, is the transient fault the operation must fail
	// with instead of running.
	Err error
	// Latency is extra delay to impose before the operation proceeds.
	Latency time.Duration
}

// InjectorStats counts injected behaviour.
type InjectorStats struct {
	Ops    uint64
	Errors uint64
}

// Injector decides, operation by operation, which faults to inject. All
// randomness flows from the seed, so a given (seed, op-sequence) pair
// always injects the same schedule. Safe for concurrent use; concurrency
// changes interleaving but tests that fix a single-goroutine op order are
// fully reproducible.
type Injector struct {
	mu        sync.Mutex
	rng       *xrand.Rand
	errorRate float64
	// latMin/latMax bound the uniform latency range (see WithLatencyRange).
	latMin, latMax time.Duration
	failN          map[string]int
	stats          InjectorStats
}

// NewInjector returns an injector with no faults configured, seeded for
// reproducibility.
func NewInjector(seed uint64) *Injector {
	return &Injector{rng: xrand.New(seed), failN: make(map[string]int)}
}

// WithErrorRate makes every operation fail with probability p.
func (in *Injector) WithErrorRate(p float64) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.errorRate = p
	return in
}

// FailNext schedules the next n calls of the named operation to fail —
// the N-failures-then-succeed pattern breaker and retry tests drive.
func (in *Injector) FailNext(op string, n int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.failN[op] = n
}

// Decide returns the fault outcome for one named operation. The caller is
// responsible for imposing Outcome.Latency (context-aware where possible).
func (in *Injector) Decide(op string) Outcome {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.stats.Ops++
	out := Outcome{Latency: in.drawLatencyLocked()}
	if n := in.failN[op]; n > 0 {
		in.failN[op] = n - 1
		in.stats.Errors++
		out.Err = resilience.MarkTransient(fmt.Errorf("%w: %s (scheduled)", ErrInjected, op))
		return out
	}
	if in.errorRate > 0 && in.rng.Bool(in.errorRate) {
		in.stats.Errors++
		out.Err = resilience.MarkTransient(fmt.Errorf("%w: %s", ErrInjected, op))
		return out
	}
	return out
}

// Stats snapshots the injection counters.
func (in *Injector) Stats() InjectorStats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// CorruptBytes returns a copy of b with one byte flipped (b itself is
// untouched). Empty input comes back empty.
func CorruptBytes(b []byte) []byte {
	cp := append([]byte(nil), b...)
	if len(cp) > 0 {
		cp[len(cp)/2] ^= 0xFF
	}
	return cp
}

// sleepCtx waits d or until the context dies, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
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
