package faults

import (
	"context"
	"sort"
	"time"

	"daspos/internal/leshouches"
	"daspos/internal/xrand"
)

// Load shapes for the multi-tenant RECAST chaos drills: a slow/flaky
// back-end wrapper and a deterministic mixed-tenant arrival schedule. Like
// everything in this package, both are seed-driven so an overload run that
// starved a tenant or lost a request replays bit-identically.

// ProcessBackend is the shape of a recast back end, expressed generically
// so this package never imports recast (whose own chaos tests import this
// one — a named import would cycle). Instantiated with recast's types,
// SlowBackend satisfies recast.Backend structurally.
type ProcessBackend[M, R any] interface {
	ConfigDigest() string
	Process(ctx context.Context, model M, record *leshouches.AnalysisRecord) (R, error)
}

// SlowBackend wraps a reinterpretation back end with injector-driven
// latency and transient failures — the browned-out chain the server's
// breaker and degraded mode are built around. Injected latency respects
// the request's deadline, so a stalled run surfaces as
// context.DeadlineExceeded exactly like a real wedged chain. Operation
// name for FailNext schedules: "process". Use as
// faults.SlowBackend[recast.ModelSpec, *recast.Result].
type SlowBackend[M, R any] struct {
	Inner ProcessBackend[M, R]
	Inj   *Injector
}

// Process runs the inner back end behind injected faults.
func (s *SlowBackend[M, R]) Process(ctx context.Context, model M, record *leshouches.AnalysisRecord) (R, error) {
	out := s.Inj.Decide("process")
	if err := sleepCtx(ctx, out.Latency); err != nil {
		var zero R
		return zero, err
	}
	if out.Err != nil {
		var zero R
		return zero, out.Err
	}
	return s.Inner.Process(ctx, model, record)
}

// ConfigDigest forwards the inner chain's configuration digest: injected
// faults change timing, never physics, so a slow back end must not split
// the dedup key space.
func (s *SlowBackend[M, R]) ConfigDigest() string { return s.Inner.ConfigDigest() }

// WithLatencyRange imposes a uniformly drawn delay in [min, max] on every
// operation — the long-tail service-time model that
// makes fairness and deadline tests honest. max < min is treated as a
// fixed delay of min.
func (in *Injector) WithLatencyRange(min, max time.Duration) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.latMin, in.latMax = min, max
	return in
}

// drawLatencyLocked picks this operation's delay from the configured
// range; none when no range is set.
func (in *Injector) drawLatencyLocked() time.Duration {
	if in.latMax > in.latMin {
		return in.latMin + time.Duration(in.rng.Uint64n(uint64(in.latMax-in.latMin)+1))
	}
	return in.latMin
}

// TenantShape describes one tenant's traffic in a mixed-tenant run.
type TenantShape struct {
	// Tenant names the requester.
	Tenant string
	// Requests is how many submissions the tenant makes in total.
	Requests int
	// MeanGap is the average spacing between bursts; actual gaps are drawn
	// uniformly in [MeanGap/2, 3*MeanGap/2]. Zero means back-to-back — a
	// flooder.
	MeanGap time.Duration
	// Burst is how many submissions arrive together at each burst instant;
	// values < 1 behave as 1 (a steady stream).
	Burst int
	// DedupEvery, when > 0, makes every n-th submission reuse the tenant's
	// first model seed, so the run exercises the archive-answer path.
	DedupEvery int
}

// Arrival is one scheduled submission.
type Arrival struct {
	// Tenant is the requester to submit as.
	Tenant string
	// At is the offset from the start of the run.
	At time.Duration
	// ModelSeed parameterizes the submitted model; repeated seeds within a
	// tenant are deliberate dedup hits.
	ModelSeed uint64
}

// MixedTenantSchedule expands tenant shapes into a single arrival
// timeline, sorted by offset (ties broken by tenant then seed, so the
// order is total and reproducible). The same (seed, shapes) pair always
// yields the identical schedule — a starvation found in CI replays on a
// laptop.
func MixedTenantSchedule(seed uint64, shapes []TenantShape) []Arrival {
	var out []Arrival
	for si, sh := range shapes {
		rng := xrand.New(seed ^ uint64(si+1)*0x9e3779b97f4a7c15)
		burst := sh.Burst
		if burst < 1 {
			burst = 1
		}
		firstSeed := rng.Uint64()
		at := time.Duration(0)
		for i := 0; i < sh.Requests; i++ {
			if i > 0 && i%burst == 0 && sh.MeanGap > 0 {
				half := uint64(sh.MeanGap) / 2
				at += time.Duration(half + rng.Uint64n(2*half+1))
			}
			ms := rng.Uint64()
			if i == 0 || (sh.DedupEvery > 0 && i%sh.DedupEvery == 0) {
				ms = firstSeed
			}
			out = append(out, Arrival{Tenant: sh.Tenant, At: at, ModelSeed: ms})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		if out[i].Tenant != out[j].Tenant {
			return out[i].Tenant < out[j].Tenant
		}
		return out[i].ModelSeed < out[j].ModelSeed
	})
	return out
}
