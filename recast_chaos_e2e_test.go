package daspos

// The RECAST overload chaos e2e: 2000+ requests from four tenants — one
// flooding — driven through the real HTTP front door into the multi-tenant
// server, with a slow flaky back end underneath and a full server
// crash+restart in the middle of the run. The test holds the PR's four
// overload-safety properties at once: every admitted request reaches a
// terminal state (across the crash), every shed request gets a 429 with
// Retry-After, the flood's backlog cannot get ahead of a polite tenant's
// request in the queue, and duplicate models are answered from the archive
// without re-running the chain.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"daspos/internal/faults"
	"daspos/internal/leshouches"
	"daspos/internal/recast"
	"daspos/internal/resilience"
)

// chaosChainBackend is the cheap deterministic reinterpretation chain under
// the fault injector: it counts runs per model seed, which is how the test
// proves dedup followers never re-ran the chain. It also keeps the order in
// which workers start requests, in the scheduler's own unit: how many runs of
// each tenant have been handed to the back end so far, and where those
// counts stood when each model was first handed over.
type chaosChainBackend struct {
	mu   sync.Mutex
	runs map[uint64]int

	tenantOf   map[uint64]string // model seed → the tenant that submits it
	starts     map[string]int    // tenant → runs handed to the back end
	firstStart map[uint64]startMark
}

// startMark is a position in the start order as one tenant sees it: the
// flood's starts so far, and its own.
type startMark struct{ flood, own int }

func newChaosChain(sched []faults.Arrival) *chaosChainBackend {
	b := &chaosChainBackend{
		runs:       map[uint64]int{},
		tenantOf:   map[uint64]string{},
		starts:     map[string]int{},
		firstStart: map[uint64]startMark{},
	}
	for _, a := range sched {
		b.tenantOf[a.ModelSeed] = a.Tenant
	}
	return b
}

// markFor reads the start order for tenant as of now.
func (b *chaosChainBackend) markFor(tenant string) startMark {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.markLocked(tenant)
}

func (b *chaosChainBackend) markLocked(tenant string) startMark {
	return startMark{flood: b.starts["flood"], own: b.starts[tenant]}
}

// startOrder is the back end as a worker meets it: it notes the hand-off in
// the chain's start order before the injected latency, so that what is
// counted is the queue's decision and not how long a sleep took on a busy
// host, then runs the slow, flaky chain.
type startOrder struct {
	chain *chaosChainBackend
	slow  *faults.SlowBackend[recast.ModelSpec, *recast.Result]
}

func (s *startOrder) ConfigDigest() string { return s.chain.ConfigDigest() }

func (s *startOrder) Process(ctx context.Context, model recast.ModelSpec, record *leshouches.AnalysisRecord) (*recast.Result, error) {
	b := s.chain
	b.mu.Lock()
	tenant := b.tenantOf[model.Seed]
	if _, started := b.firstStart[model.Seed]; !started {
		b.firstStart[model.Seed] = b.markLocked(tenant)
	}
	b.starts[tenant]++
	b.mu.Unlock()
	return s.slow.Process(ctx, model, record)
}

func (b *chaosChainBackend) ConfigDigest() string { return "chaos-chain-v1" }

func (b *chaosChainBackend) Process(ctx context.Context, model recast.ModelSpec, record *leshouches.AnalysisRecord) (*recast.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b.mu.Lock()
	b.runs[model.Seed]++
	b.mu.Unlock()
	return &recast.Result{
		Analysis: record.Name, BackEnd: "chaos-chain",
		Generated: model.Events, Selected: model.Events / 2, Acceptance: 0.5,
	}, nil
}

func (b *chaosChainBackend) runsFor(seed uint64) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.runs[seed]
}

// newChaosRecastServer builds a started server over the shared chain: slow
// (2–6ms per run), 1% transient failures, 4 workers, per-tenant rate 50/s
// with a 300-token burst so the flood's opening salvo is admitted and must
// be scheduled fairly rather than shed at the door.
func newChaosRecastServer(t *testing.T, dir string, chain *chaosChainBackend, seed uint64) *recast.Server {
	t.Helper()
	inj := faults.NewInjector(seed).
		WithLatencyRange(4*time.Millisecond, 10*time.Millisecond).
		WithErrorRate(0.01)
	svc := recast.NewService(&startOrder{
		chain: chain,
		slow:  &faults.SlowBackend[recast.ModelSpec, *recast.Result]{Inner: chain, Inj: inj},
	})
	if err := svc.Subscribe(recast.Subscription{
		Name:        "E2E_DIMUON_HIGHMASS",
		Description: "overload chaos e2e",
		Record:      dimuonSearchRecord(),
	}); err != nil {
		t.Fatal(err)
	}
	srv, err := recast.NewServer(context.Background(), svc, recast.ServerConfig{
		JournalDir:  dir,
		Workers:     4,
		QueueBound:  2000,
		TenantRate:  50,
		TenantBurst: 300,
		AutoApprove: true,
		Policy:      resilience.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	return srv
}

func TestRecastOverloadChaosE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("overload chaos e2e is seconds-long; skipped in -short")
	}
	dir := t.TempDir()

	var (
		cur    atomic.Pointer[recast.Server]
		swapMu sync.RWMutex // held R by submitters, W by the crasher
	)
	// One flooding tenant against three polite ones, 2030 submissions in
	// total. The polite tenants stay under their fair share of the four
	// workers; the flood's ~8ms-spaced bursts exceed its rate limit many
	// times over.
	shapes := []faults.TenantShape{
		{Tenant: "flood", Requests: 1130, MeanGap: 2 * time.Millisecond, Burst: 8},
		{Tenant: "alice", Requests: 300, MeanGap: 20 * time.Millisecond, DedupEvery: 4},
		{Tenant: "bob", Requests: 300, MeanGap: 20 * time.Millisecond},
		{Tenant: "carol", Requests: 300, MeanGap: 25 * time.Millisecond, Burst: 2},
	}
	sched := faults.MixedTenantSchedule(2026, shapes)
	if len(sched) < 2000 {
		t.Fatalf("schedule has %d arrivals, the drill needs 2000+", len(sched))
	}
	byTenant := map[string][]faults.Arrival{}
	for _, a := range sched {
		byTenant[a.Tenant] = append(byTenant[a.Tenant], a)
	}

	chain := newChaosChain(sched)
	cur.Store(newChaosRecastServer(t, dir, chain, 1))
	defer func() { _ = cur.Load().Close() }()
	hts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur.Load().Handler().ServeHTTP(w, r)
	}))
	defer hts.Close()

	var (
		recMu     sync.Mutex
		admitted  = map[string]int{}
		shed      = map[string]int{}
		dedupDone = map[string]int{}
		latencies = map[string][]time.Duration{}
		// admittedAt is, per model, where the start order stood once its
		// first submission had been accepted.
		admittedAt = map[uint64]startMark{}
		preCrash   atomic.Int64 // admissions before the crash, for the loss check
		crashed    atomic.Bool
		submitters sync.WaitGroup
		pollers    sync.WaitGroup
	)
	start := time.Now()

	// The crasher: one second in, tear down the whole server — workers,
	// scheduler, journal — and bring up a fresh one over the same
	// directory with a new Service that must replay the ledger.
	crashDone := make(chan struct{})
	go func() {
		defer close(crashDone)
		time.Sleep(1 * time.Second)
		swapMu.Lock()
		defer swapMu.Unlock()
		old := cur.Load()
		if err := old.Close(); err != nil {
			t.Errorf("crash close: %v", err)
		}
		cur.Store(newChaosRecastServer(t, dir, chain, 2))
		crashed.Store(true)
	}()

	type pending struct {
		id string
		t0 time.Time
	}
	for tenant, arrivals := range byTenant {
		accepted := make(chan pending, len(arrivals))
		submitters.Add(1)
		go func(tenant string, arrivals []faults.Arrival) {
			defer submitters.Done()
			defer close(accepted)
			c := &recast.Client{BaseURL: hts.URL}
			for _, a := range arrivals {
				if d := a.At - time.Since(start); d > 0 {
					time.Sleep(d)
				}
				model := recast.ModelSpec{
					Process: "zprime", MassGeV: 900, Events: 50, Seed: a.ModelSeed,
				}
				swapMu.RLock()
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				req, err := c.SubmitCtx(ctx, "E2E_DIMUON_HIGHMASS", tenant, "", model)
				cancel()
				swapMu.RUnlock()
				if err != nil {
					var herr *recast.HTTPError
					if errors.As(err, &herr) && herr.Status == http.StatusTooManyRequests {
						if herr.RetryAfter <= 0 {
							t.Errorf("%s shed without a Retry-After hint: %v", tenant, err)
						}
						recMu.Lock()
						shed[tenant]++
						recMu.Unlock()
						continue
					}
					t.Errorf("%s submit: %v", tenant, err)
					continue
				}
				// Read after the accept: a late reading can only shorten
				// the interval the fairness bound is held over.
				mark := chain.markFor(tenant)
				recMu.Lock()
				admitted[tenant]++
				if _, seen := admittedAt[a.ModelSeed]; !seen {
					admittedAt[a.ModelSeed] = mark
				}
				recMu.Unlock()
				if !crashed.Load() {
					preCrash.Add(1)
				}
				accepted <- pending{id: req.ID, t0: time.Now()}
			}
		}(tenant, arrivals)

		// One poller per tenant chases its admitted requests to their
		// terminal states — across the restart if need be — scanning the
		// outstanding set on a coarse tick so thousands of requests don't
		// need thousands of goroutines.
		pollers.Add(1)
		go func(tenant string) {
			defer pollers.Done()
			outstanding := map[string]time.Time{}
			deadline := time.Now().Add(90 * time.Second)
			open := true
			for (open || len(outstanding) > 0) && time.Now().Before(deadline) {
				drain := true
				for drain {
					select {
					case p, ok := <-accepted:
						if !ok {
							open = false
							drain = false
							break
						}
						outstanding[p.id] = p.t0
					default:
						drain = false
					}
				}
				for id, t0 := range outstanding {
					got, err := cur.Load().Service().Get(id)
					if err != nil {
						// The id can be missing for one beat mid-swap while
						// the new service replays; retry, never give up.
						continue
					}
					switch got.Status {
					case recast.StatusDone, recast.StatusFailed:
						recMu.Lock()
						latencies[tenant] = append(latencies[tenant], time.Since(t0))
						if got.DedupOf != "" {
							dedupDone[tenant]++
						}
						recMu.Unlock()
						delete(outstanding, id)
					}
				}
				time.Sleep(5 * time.Millisecond)
			}
			for id := range outstanding {
				t.Errorf("admitted request %s (%s) never reached a terminal state", id, tenant)
			}
		}(tenant)
	}
	submitters.Wait()
	<-crashDone
	pollers.Wait()
	elapsed := time.Since(start)

	// The crash must have happened while accepted work was still in
	// flight, or the restart proved nothing.
	if !crashed.Load() {
		t.Fatal("the crasher never ran")
	}
	if preCrash.Load() == 0 {
		t.Fatal("no admissions before the crash; the loss check is vacuous")
	}
	srv := cur.Load()
	if st := srv.Status().Queue; st.Queued != 0 || st.Claimed != 0 {
		t.Fatalf("queue not drained after the run: %+v", st)
	}

	recMu.Lock()
	defer recMu.Unlock()
	totalAdmitted, totalShed := 0, 0
	for _, n := range admitted {
		totalAdmitted += n
	}
	for _, n := range shed {
		totalShed += n
	}
	for tenant, n := range admitted {
		if done := len(latencies[tenant]); done != n {
			t.Errorf("%s: %d admitted but only %d reached a terminal state", tenant, n, done)
		}
	}
	if totalShed == 0 {
		t.Fatal("the flood was never shed; admission control did not engage")
	}
	if shed["flood"] == 0 {
		t.Error("the flooding tenant was never rate-limited")
	}

	// Fairness, in the scheduler's own unit rather than in milliseconds a
	// busy host stretches: between a polite request's admission and its own
	// start, how many of the flood's runs started. The scheduler serves the
	// queued tenant with the fewest served requests, so the flood starts as
	// often as the tenant itself does while that tenant has work waiting,
	// plus what the four workers had already claimed and a turn or two while
	// the served counts are level — its own starts in the interval and a
	// small multiple of the workers. A FIFO queue puts every
	// early polite request behind the flood's 300-deep admitted backlog with
	// a few dozen of its own ahead of it.
	const overtakeSlack = 32
	// Per polite tenant, over its requests that ran: the most flood starts
	// beyond its own between one request's admission and its start.
	overtaken, measured := map[string]int{}, 0
	chain.mu.Lock()
	for _, tenant := range []string{"alice", "bob", "carol"} {
		for _, a := range byTenant[tenant] {
			admission, admittedOK := admittedAt[a.ModelSeed]
			start, startedOK := chain.firstStart[a.ModelSeed]
			if !admittedOK || !startedOK {
				continue // shed, or answered from the archive without a run
			}
			measured++
			own := start.own - admission.own
			overtaken[tenant] = max(overtaken[tenant], start.flood-admission.flood-own)
		}
	}
	chain.mu.Unlock()
	if measured < 600 {
		t.Errorf("start order measured for %d polite requests, want most of the 900", measured)
	}
	// The one latency comparison kept is relative: the flood waits behind
	// itself, so its p99 is the larger.
	floodP99 := durPercentile(latencies["flood"], 99)
	for _, tenant := range []string{"alice", "bob", "carol"} {
		if overtaken[tenant] > overtakeSlack {
			t.Errorf("%s: between one request's admission and its start the flood started %d more runs than %s did, want at most %d more",
				tenant, overtaken[tenant], tenant, overtakeSlack)
		}
		if p99 := durPercentile(latencies[tenant], 99); p99 >= floodP99 {
			t.Errorf("%s p99 %v not below the flood's own %v: the flood should only queue behind itself",
				tenant, p99, floodP99)
		}
	}

	// Dedup: alice resubmits her first model every 4th request; followers
	// must be answered from the archive, not re-run. The chain may run the
	// primary a handful of times (transient-failure retries), but nothing
	// close to once per duplicate.
	aliceSeed := byTenant["alice"][0].ModelSeed
	dupSubmissions := 0
	for _, a := range byTenant["alice"] {
		if a.ModelSeed == aliceSeed {
			dupSubmissions++
		}
	}
	if dupSubmissions < 10 {
		t.Fatalf("schedule produced only %d duplicate submissions for alice", dupSubmissions)
	}
	if dedupDone["alice"] == 0 {
		t.Error("none of alice's duplicate requests was answered from the archive")
	}
	if runs := chain.runsFor(aliceSeed); runs >= dupSubmissions/2 {
		t.Errorf("chain ran %d times for alice's duplicated model (%d submissions): dedup not engaging", runs, dupSubmissions)
	}
	status := srv.Status()
	if status.DedupHits == 0 {
		t.Error("server counters recorded no dedup hits")
	}

	t.Logf("%d arrivals in %v: admitted %d (pre-crash %d), shed %d, flood p99 %v, alice/bob/carol p99 %v/%v/%v, flood starts beyond their own at most %d/%d/%d, dedup hits %d",
		len(sched), elapsed.Round(time.Millisecond), totalAdmitted, preCrash.Load(), totalShed, floodP99.Round(time.Millisecond),
		durPercentile(latencies["alice"], 99).Round(time.Millisecond),
		durPercentile(latencies["bob"], 99).Round(time.Millisecond),
		durPercentile(latencies["carol"], 99).Round(time.Millisecond),
		overtaken["alice"], overtaken["bob"], overtaken["carol"],
		status.DedupHits)
}

// durPercentile reports the p-th percentile (nearest-rank) of a sample.
func durPercentile(ds []time.Duration, p int) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := (p*len(sorted)+99)/100 - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
