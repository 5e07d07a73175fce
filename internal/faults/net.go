package faults

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"daspos/internal/resilience"
	"daspos/internal/xrand"
)

// Network-level fault injection for the preservation cluster: partitions
// (a host is unreachable until healed), slow nodes (seeded latency
// distributions), 5xx storms (the node answers, but with server errors),
// and corrupt-on-the-wire replica reads. All randomness flows from the
// injector seed, so a cluster chaos schedule replays bit-identically.

// NetOutcome is the injector's decision for one request to one host.
type NetOutcome struct {
	// Drop means the host is partitioned away: the request must fail
	// without reaching it.
	Drop bool
	// Latency is extra delay to impose before the request proceeds.
	Latency time.Duration
	// Storm means the request must be answered with a synthesized 5xx
	// instead of reaching the host.
	Storm bool
	// Corrupt means a blob body in the response should be bit-flipped.
	Corrupt bool
}

// SlowSpec is a per-host latency distribution: every request to the host
// waits Base plus a uniform draw in [0, Jitter) from the seeded stream.
type SlowSpec struct {
	Base   time.Duration
	Jitter time.Duration
}

// NetInjector decides, request by request, which network faults to inject.
// Safe for concurrent use; with a single-goroutine request order the
// decision sequence is fully deterministic for a given seed.
type NetInjector struct {
	mu          sync.Mutex
	rng         *xrand.Rand
	partitioned map[string]bool
	slow        map[string]SlowSpec
	errorRate   float64
	corruptRate float64
}

// NewNetInjector returns an injector with no faults configured, seeded for
// reproducibility.
func NewNetInjector(seed uint64) *NetInjector {
	return &NetInjector{
		rng:         xrand.New(seed),
		partitioned: make(map[string]bool),
		slow:        make(map[string]SlowSpec),
	}
}

// WithErrorRate makes every request answer with a synthesized 5xx with
// probability p — the error-storm mode.
func (n *NetInjector) WithErrorRate(p float64) *NetInjector {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.errorRate = p
	return n
}

// WithCorruptRate makes every blob-bearing response corrupt its bytes with
// probability p — the lying-replica mode read paths must survive.
func (n *NetInjector) WithCorruptRate(p float64) *NetInjector {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.corruptRate = p
	return n
}

// Partition makes the given hosts unreachable until healed.
func (n *NetInjector) Partition(hosts ...string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, h := range hosts {
		n.partitioned[h] = true
	}
}

// HealAll reconnects every partitioned host and clears every slow spec —
// the storm passing.
func (n *NetInjector) HealAll() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partitioned = make(map[string]bool)
	n.slow = make(map[string]SlowSpec)
}

// SetSlow imposes a latency distribution on one host.
func (n *NetInjector) SetSlow(host string, spec SlowSpec) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.slow[host] = spec
}

// ClearSlow removes a host's latency distribution.
func (n *NetInjector) ClearSlow(host string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.slow, host)
}

// Decide returns the fault outcome for one request to one host. The caller
// imposes Latency (context-aware), then honours Drop/Storm/Corrupt.
func (n *NetInjector) Decide(host string) NetOutcome {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := NetOutcome{}
	if n.partitioned[host] {
		out.Drop = true
		return out
	}
	if spec, ok := n.slow[host]; ok {
		out.Latency = spec.Base
		if spec.Jitter > 0 {
			out.Latency += time.Duration(n.rng.Float64() * float64(spec.Jitter))
		}
	}
	if n.errorRate > 0 && n.rng.Bool(n.errorRate) {
		out.Storm = true
		return out
	}
	if n.corruptRate > 0 && n.rng.Bool(n.corruptRate) {
		out.Corrupt = true
	}
	return out
}

// Transport wraps an http.RoundTripper with network fault injection, keyed
// by target host — the chaos harness the cluster client is driven through.
// Partitions surface as transient transport errors (wrapping ErrInjected),
// storms as synthesized 503 responses, and wire corruption bit-flips blob
// GET bodies only, so the fault models a damaged replica stream rather
// than unparseable control traffic.
type Transport struct {
	// Inner performs the real request; nil means http.DefaultTransport.
	Inner http.RoundTripper
	// Inj decides the faults.
	Inj *NetInjector
}

var _ http.RoundTripper = (*Transport)(nil)

// RoundTrip implements http.RoundTripper with injected network faults.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	host := req.URL.Host
	out := t.Inj.Decide(host)
	if err := sleepCtx(req.Context(), out.Latency); err != nil {
		return nil, err
	}
	if out.Drop {
		return nil, resilience.MarkTransient(fmt.Errorf("%w: partitioned from %s", ErrInjected, host))
	}
	if out.Storm {
		return &http.Response{
			Status:        "503 Service Unavailable",
			StatusCode:    http.StatusServiceUnavailable,
			Proto:         "HTTP/1.1",
			ProtoMajor:    1,
			ProtoMinor:    1,
			Header:        make(http.Header),
			Body:          io.NopCloser(strings.NewReader("faults: injected 5xx storm")),
			ContentLength: -1,
			Request:       req,
		}, nil
	}
	inner := t.Inner
	if inner == nil {
		inner = http.DefaultTransport
	}
	resp, err := inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if out.Corrupt && resp.StatusCode == http.StatusOK &&
		req.Method == http.MethodGet && strings.Contains(req.URL.Path, "/blobs/") {
		body, rerr := io.ReadAll(resp.Body)
		cerr := resp.Body.Close()
		if rerr != nil || cerr != nil {
			// The body is already consumed; surface a transient transport
			// failure rather than an empty 200.
			return nil, resilience.MarkTransient(fmt.Errorf("%w: draining body for corruption: %w", ErrInjected, errors.Join(rerr, cerr)))
		}
		resp.Body = io.NopCloser(bytes.NewReader(CorruptBytes(body)))
		resp.ContentLength = int64(len(body))
	}
	return resp, nil
}
