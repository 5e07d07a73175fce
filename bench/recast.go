package bench

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"time"

	"daspos/internal/datamodel"
	"daspos/internal/leshouches"
	"daspos/internal/recast"
)

// The recast workload: the multi-tenant front door over the real full-
// simulation back end. Phase capacity is closed loop; phase overload is
// open loop with three polite tenants under their rate limit and one
// flooding far over it.
const (
	recastAnalysis     = "GPD_2013_DIMUON_HIGHMASS"
	recastModelEvents  = 200
	recastCapacityReqs = 720
	recastOverloadSecs = 4.0
	recastPoliteRate   = 5.0   // requests per second per polite tenant
	recastFloodRate    = 100.0 // against a tenant limit of 10/s
	recastTenantRate   = 10.0
	recastTenantBurst  = 8.0
	recastQueueBound   = 256
	recastPoll         = 2 * time.Millisecond

	// Capacity is timed in this many groups of requests; the overload
	// latencies are the median percentile of this many windows.
	recastSlices  = 45
	recastWindows = 3
)

var politeTenants = []string{"alice", "bob", "carol"}

// highMassSearch is the analysis cmd/daspos-recast subscribes.
func highMassSearch() *leshouches.AnalysisRecord {
	return &leshouches.AnalysisRecord{
		Name:        recastAnalysis,
		Description: "High-mass dimuon resonance search",
		Objects: []leshouches.ObjectDefinition{
			{Name: "sig_muon", Type: datamodel.ObjMuon, MinPt: 30, MaxAbsEta: 2.4},
		},
		Selection: []leshouches.Cut{
			{Variable: "count:sig_muon", Op: ">=", Value: 2},
			{Variable: "os_pair:sig_muon", Op: "==", Value: 1},
			{Variable: "inv_mass:sig_muon", Op: ">", Value: 400},
		},
		Background:     4.2,
		ObservedEvents: 5,
	}
}

func modelKey(seed uint64) string { return "model:" + strconv.FormatUint(seed, 10) }

// backendMeter is the recast.Backend the benchmark puts around
// FullSimBackend in a traced pass: one span per Process call, parented on
// the client request with the same model seed, and the start time that
// queue wait is measured to.
type backendMeter struct {
	inner *recast.FullSimBackend
	tr    *Tracer

	mu      sync.Mutex
	started map[uint64]time.Time
	ms      []float64
}

func (b *backendMeter) forget() {
	b.mu.Lock()
	b.started, b.ms = make(map[uint64]time.Time), nil
	b.mu.Unlock()
}

func (b *backendMeter) Name() string         { return b.inner.Name() }
func (b *backendMeter) ConfigDigest() string { return b.inner.ConfigDigest() }

func (b *backendMeter) Process(ctx context.Context, model recast.ModelSpec, record *leshouches.AnalysisRecord) (*recast.Result, error) {
	span := b.tr.Begin(b.tr.Lookup(modelKey(model.Seed), phaseKey), "recast", "backend")
	t0 := time.Now()
	res, err := b.inner.Process(ctx, model, record)
	d := time.Since(t0)
	b.tr.End(span, 0, int64(model.Events))
	b.mu.Lock()
	if _, seen := b.started[model.Seed]; !seen {
		b.started[model.Seed] = t0
	}
	b.ms = append(b.ms, float64(d)/1e6)
	b.mu.Unlock()
	return res, err
}

// spanTransport stamps the requests of one recast.Client with the span
// they belong to, so the server-side middleware can nest under it.
type spanTransport struct {
	span int64
	base http.RoundTripper
}

func (t spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	r = r.Clone(r.Context())
	r.Header.Set(spanHeader, strconv.FormatInt(t.span, 10))
	if r.Method == http.MethodPost {
		r.Header.Set(classHeader, "submit")
	} else {
		r.Header.Set(classHeader, "poll")
	}
	return t.base.RoundTrip(r)
}

// recastRig is a recast.Server over the full-simulation back end behind a
// loopback listener, journaling into dir.
type recastRig struct {
	c       *runCtx
	dir     string
	fullsim *recast.FullSimBackend
	bm      *backendMeter // traced pass only
	srv     *recast.Server
	hts     *httptest.Server
	tp      *http.Transport
}

func startRecast(c *runCtx, p *plant) (*recastRig, error) {
	dir, err := os.MkdirTemp(c.tmp, "recast-")
	if err != nil {
		return nil, fmt.Errorf("bench: journal dir: %w", err)
	}
	r := &recastRig{
		c: c, dir: dir,
		fullsim: &recast.FullSimBackend{Det: p.det, CondDB: p.db, Tag: conditionsTag, Run: 1, LuminosityPb: 20000},
		tp:      &http.Transport{MaxIdleConnsPerHost: 32},
	}
	if c.tr != nil {
		r.bm = &backendMeter{inner: r.fullsim, tr: c.tr, started: make(map[uint64]time.Time)}
	}
	if err := r.open(); err != nil {
		removeAll(c, dir)
		return nil, err
	}
	return r, nil
}

// open builds the service and server on the journal directory, replaying
// whatever an earlier server left there.
func (r *recastRig) open() error {
	var backend recast.Backend = r.fullsim
	if r.bm != nil {
		backend = r.bm
	}
	svc := recast.NewService(backend)
	if err := svc.Subscribe(recast.Subscription{Name: recastAnalysis, Description: "High-mass opposite-sign dimuon search, 20/fb", Record: highMassSearch()}); err != nil {
		return fmt.Errorf("bench: subscribing analysis: %w", err)
	}
	srv, err := recast.NewServer(context.Background(), svc, recast.ServerConfig{
		JournalDir:  r.dir,
		Workers:     r.c.workers,
		QueueBound:  recastQueueBound,
		TenantRate:  recastTenantRate,
		TenantBurst: recastTenantBurst,
		AutoApprove: true,
	})
	if err != nil {
		return fmt.Errorf("bench: recast server: %w", err)
	}
	srv.Start()
	h := srv.Handler()
	if r.c.tr != nil {
		h = (&serviceMeter{tr: r.c.tr, layer: "recast"}).wrap(h)
	}
	r.srv, r.hts = srv, httptest.NewServer(h)
	return nil
}

// shut stops the listener and the server, keeping the journals.
func (r *recastRig) shut() error {
	r.tp.CloseIdleConnections()
	r.hts.Close()
	return r.srv.Close()
}

func (r *recastRig) close() {
	if err := r.shut(); err != nil {
		r.c.logf("bench: closing recast server: %v", err)
	}
	removeAll(r.c, r.dir)
}

// client returns a recast.Client whose requests carry span.
func (r *recastRig) client(span int64) *recast.Client {
	var rt http.RoundTripper = r.tp
	if r.c.tr != nil {
		rt = spanTransport{span: span, base: r.tp}
	}
	return &recast.Client{BaseURL: r.hts.URL, HTTP: &http.Client{Transport: rt}}
}

// journalBytes is the size of both journals.
func (r *recastRig) journalBytes() int64 {
	var n int64
	for _, p := range []string{"requests.log", filepath.Join("queue", "queue.log")} {
		if st, err := os.Stat(filepath.Join(r.dir, p)); err == nil {
			n += st.Size()
		}
	}
	return n
}

// outcome is one submission's fate.
type outcome struct {
	tenant   string
	model    recast.ModelSpec
	id       string // empty when shed
	shed     bool
	done     *recast.Request
	submitMs float64
	totalMs  float64   // due time to terminal state
	due      time.Time // when the submission was scheduled
	acked    time.Time // when the submission was acknowledged
	finished time.Time // when the terminal state was seen
}

// submit files one request for tenant at `due` and polls it to a terminal
// state. Accepted ⇒ terminal is one checked operation; a shed submission
// is an outcome, not a failure.
func (r *recastRig) submit(tenant string, model recast.ModelSpec, due time.Time) outcome {
	c := r.c
	out := outcome{tenant: tenant, model: model, due: due}
	span := c.tr.Begin(c.tr.Lookup(phaseKey), "recast", "request")
	c.tr.Bind(modelKey(model.Seed), span)
	defer func() {
		c.tr.Unbind(modelKey(model.Seed))
		c.tr.End(span, 0, int64(model.Events))
	}()
	cl := r.client(span)
	ctx := context.Background()
	t0 := time.Now()
	req, err := cl.SubmitCtx(ctx, recastAnalysis, tenant, "", model)
	out.acked = time.Now()
	out.submitMs = float64(out.acked.Sub(t0)) / 1e6
	if err != nil {
		var herr *recast.HTTPError
		if errors.As(err, &herr) && herr.Status == http.StatusTooManyRequests {
			out.shed = true
			return out
		}
		c.tally.check(false, "recast submit for %s: %v", tenant, err)
		return out
	}
	out.id = req.ID
	for req.Status != recast.StatusDone && req.Status != recast.StatusFailed {
		time.Sleep(recastPoll)
		if req, err = cl.GetCtx(ctx, out.id); err != nil {
			c.tally.check(false, "recast poll %s: %v", out.id, err)
			return out
		}
	}
	out.finished = time.Now()
	out.totalMs = float64(out.finished.Sub(due)) / 1e6
	out.done = req
	c.tally.check(req.Status == recast.StatusDone && req.Result != nil, "recast %s ended %s: %s", out.id, req.Status, req.Reason)
	return out
}

func recastModel(seed uint64, events int) recast.ModelSpec {
	return recast.ModelSpec{Process: "zprime", MassGeV: 1000, Events: events, Seed: seed}
}

// batch has `clients` closed-loop clients take the next of n distinct
// models, submit it and poll it to the end.
func (r *recastRig) batch(n, clients int, seedBase uint64) []outcome {
	outs := make([]outcome, n)
	eachClient(clients, n, func(i int) {
		// Many tenants, so the per-tenant rate limit stays out of a
		// phase that measures the workers.
		tenant := fmt.Sprintf("cap-%02d", (seedBase+uint64(i))%32)
		outs[i] = r.submit(tenant, recastModel(seedBase+uint64(i), recastModelEvents), time.Now())
	})
	return outs
}

// capacity is the closed-loop phase: n requests as `slices` batches, each
// one slice on the timer.
func (r *recastRig) capacity(tm *timer, n, clients, slices int, seedBase uint64) []outcome {
	slices = min(slices, n)
	var outs []outcome
	for k := 0; k < slices; k++ {
		lo, hi := k*n/slices, (k+1)*n/slices
		r.c.timed(tm, "capacity", float64(hi-lo), func() {
			outs = append(outs, r.batch(hi-lo, clients, seedBase+uint64(lo))...)
		})
	}
	return outs
}

// overload is the open-loop phase: every tenant follows its own arrival
// schedule for the window, each arrival on its own goroutine so a slow
// answer never delays the next submission.
func (r *recastRig) overload(window time.Duration, seed, seedBase uint64) []outcome {
	type arrival struct {
		tenant string
		model  recast.ModelSpec
		at     time.Duration
	}
	var plan []arrival
	next := seedBase
	add := func(tenant string, k int, rate float64, resubmitEvery int) {
		var seeds []uint64
		for i, at := range arrivalsFor(seed^uint64(k+1)*0x9e3779b97f4a7c15, window, rate) {
			s := next
			if resubmitEvery > 0 && i%resubmitEvery == resubmitEvery-1 {
				s = seeds[i-resubmitEvery+1] // a model this tenant sent before
			} else {
				next++
			}
			seeds = append(seeds, s)
			plan = append(plan, arrival{tenant, recastModel(s, recastModelEvents), at})
		}
	}
	add(politeTenants[0], 0, recastPoliteRate, 4)
	add(politeTenants[1], 1, recastPoliteRate, 0)
	add(politeTenants[2], 2, recastPoliteRate, 0)
	add("flood", 3, recastFloodRate, 0)

	outs := make([]outcome, len(plan))
	start := time.Now()
	var wg sync.WaitGroup
	for i, a := range plan {
		wg.Add(1)
		go func() {
			defer wg.Done()
			due := start.Add(a.at)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			outs[i] = r.submit(a.tenant, a.model, due)
		}()
	}
	wg.Wait()
	return outs
}

type recastState struct {
	rig   *recastRig
	plant *plant
}

func (s *recastState) close() { s.rig.close() }

func setUpRecast(c *runCtx) (state, error) {
	p, err := newPlant(c.seed)
	if err != nil {
		return nil, err
	}
	rig, err := startRecast(c, p)
	if err != nil {
		return nil, err
	}
	// Warm the chain, the journals and the connections before the clock:
	// users do not pay that on every request.
	rig.batch(2*c.workers, c.workers, c.seed<<20|1<<19)
	return &recastState{rig, p}, nil
}

func runRecast(c *runCtx, st state, v values) error {
	r := st.(*recastState).rig
	seedBase := c.seed << 20
	before := r.srv.Status()
	if r.bm != nil {
		r.bm.forget() // set-up's warm-up runs are not the workload's
	}
	n := c.count(recastCapacityReqs, 6)
	window := time.Duration(float64(time.Second) * recastOverloadSecs * c.scale)
	if window < 400*time.Millisecond {
		window = 400 * time.Millisecond
	}

	// The closed-loop phase is the timed part. The open-loop phase runs to
	// a schedule, so its wall time says nothing; it gives the latencies
	// under overload and the admission counts.
	tm := timer{host: c.host}
	capOuts := r.capacity(&tm, n, 2*c.workers, recastSlices, seedBase)
	tm.into(v)
	v["recast_done_per_s"] = tm.rate("capacity")
	var ovOuts []outcome
	c.phase("overload", func() { ovOuts = r.overload(window, c.seed, seedBase+uint64(n)) })

	for _, o := range capOuts {
		c.tally.check(!o.shed, "capacity request for %s was shed", o.tenant)
	}

	// Polite latencies in arrival order, for the windowed percentiles.
	sort.SliceStable(ovOuts, func(i, j int) bool { return ovOuts[i].due.Before(ovOuts[j].due) })
	var politeMs []float64
	var floodSent, floodShed, politeShed int
	for _, o := range ovOuts {
		switch {
		case o.tenant == "flood":
			floodSent++
			if o.shed {
				floodShed++
			}
		case o.shed:
			politeShed++
		case o.done != nil:
			politeMs = append(politeMs, o.totalMs)
		}
	}
	c.tally.check(politeShed == 0, "%d polite submissions were shed", politeShed)
	v["recast_p50_ms"] = windowed(politeMs, recastWindows, 50)
	v["recast_p95_ms"] = windowed(politeMs, recastWindows, 95)
	c.logf("recast: capacity %d at %.1f done/s: %s; overload %.1fs: %d polite samples p50 %.0fms p95 %.0fms (whole phase %.0f/%.0f), flood %d/%d shed",
		n, v["recast_done_per_s"], timedLine(v), window.Seconds(), len(politeMs), v["recast_p50_ms"], v["recast_p95_ms"],
		percentile(politeMs, 50), percentile(politeMs, 95), floodShed, floodSent)

	// Five results against a direct run of the back end.
	record := highMassSearch()
	for i := 0; i < len(capOuts) && i < 5; i++ {
		o := capOuts[i*len(capOuts)/5]
		if o.done == nil || o.done.Result == nil {
			continue
		}
		want, err := r.fullsim.Process(context.Background(), o.model, record)
		c.tally.check(err == nil && reflect.DeepEqual(want, o.done.Result), "recast %s: served result differs from a direct back-end run (err %v)", o.id, err)
	}

	// The server's own counters, less what set-up's warm-up put on them.
	status := r.srv.Status()
	v["recast.admitted"] = float64(status.Admitted - before.Admitted)
	v["recast.shed"] = float64(status.Shed - before.Shed)
	v["recast.served"] = float64(status.Served - before.Served)
	v["recast.dedup_hits"] = float64(status.DedupHits - before.DedupHits)
	v["recast.expired"] = float64(status.Expired - before.Expired)
	v["recast.failed"] = float64(status.Failed - before.Failed)
	v["recast.flood_shed_ratio"] = ratio(float64(floodShed), float64(floodSent))
	v["recast.polite_shed"] = float64(politeShed)
	v["recast.journal_bytes"] = float64(r.journalBytes())
	all := append(capOuts, ovOuts...)
	recastLatencyInto(v, r.bm, all)

	// Close the server and reopen it on the same journals: everything it
	// admitted must still be there, and finished.
	if err := r.shut(); err != nil {
		return fmt.Errorf("bench: closing recast server: %w", err)
	}
	t0 := time.Now()
	if err := r.open(); err != nil {
		return err
	}
	v["recast.reopen_s"] = time.Since(t0).Seconds()
	svc := r.srv.Service()
	for _, o := range all {
		if o.id == "" {
			continue
		}
		req, err := svc.Get(o.id)
		c.tally.check(err == nil && (req.Status == recast.StatusDone || req.Status == recast.StatusFailed),
			"after reopen, %s is not terminal (err %v)", o.id, err)
	}
	return nil
}

// recastLatencyInto fills the submit, queue-wait and back-end latency
// metrics. Queue wait runs from the acknowledgement to the back end's
// start, matched by model seed; requests answered from the archive never
// start the back end and have none.
func recastLatencyInto(v values, bm *backendMeter, outs []outcome) {
	var submit []float64
	for _, o := range outs {
		if o.id != "" {
			submit = append(submit, o.submitMs)
		}
	}
	v["recast.submit_ms_p50"] = percentile(submit, 50)
	v["recast.submit_ms_p99"] = percentile(submit, 99)
	if bm == nil {
		return
	}
	bm.mu.Lock()
	defer bm.mu.Unlock()
	var wait []float64
	counted := make(map[uint64]bool)
	for _, o := range outs {
		started, ok := bm.started[o.model.Seed]
		if o.id == "" || !ok || counted[o.model.Seed] {
			continue
		}
		counted[o.model.Seed] = true
		// A worker can claim the entry before the client has read the
		// acknowledgement: that request did not wait.
		wait = append(wait, max(0, float64(started.Sub(o.acked))/1e6))
	}
	v["recast.queue_wait_ms_p50"] = percentile(wait, 50)
	v["recast.queue_wait_ms_p95"] = percentile(wait, 95)
	v["recast.backend_ms_p50"] = percentile(bm.ms, 50)
	v["recast.backend_ms_p95"] = percentile(bm.ms, 95)
}
