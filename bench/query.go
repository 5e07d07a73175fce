package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"daspos/internal/catalog"
	"daspos/internal/hepdata"
	"daspos/internal/queryserve"
	"daspos/internal/xrand"
)

// The query workload: the read tier over a corpus that does not fit the
// server's default 4,096-entry cache, with a 256-key hot set that does.
const (
	queryRecords  = 20000
	queryDatasets = 2000
	queryHotKeys  = 256

	queryCachedOps = 140000 // phase cached: hot set only, one third conditional
	queryColdOps   = 48000  // phase cold: uniform lookups, searches, scans, exports, publishes
	queryRate      = 2000   // phase rate: open loop, requests per second
	queryRateSecs  = 3.0

	// Each closed-loop phase is timed in this many slices; the open-loop
	// phase reports the median percentile of this many windows.
	querySlices      = 40
	queryRateWindows = 4
)

// Request classes, indexing queryClasses.
const (
	classHot = iota
	classRevalidate
	classCold
	classSearch
	classScan
	classExport
	classPublish
)

// Headers the benchmark's client sends so its own middleware can file a
// request under its class and parent span. The server ignores them.
const (
	classHeader = "X-Bench-Class"
	spanHeader  = "X-Bench-Span"
)

// qop is one request of the query workload, generated before the clock
// starts.
type qop struct {
	class     int
	target    string
	validator string // If-None-Match, for a revalidation
	body      []byte // a publish
	wantTotal int    // a search: the hit count the corpus implies; -1 otherwise
	sample    bool   // a lookup whose body's ETag is recomputed and compared
}

func (o qop) wantStatus() int {
	switch o.class {
	case classRevalidate:
		return http.StatusNotModified
	case classPublish:
		return http.StatusCreated
	default:
		return http.StatusOK
	}
}

// queryServer is a queryserve.Server over a generated corpus behind a
// loopback listener.
type queryServer struct {
	srv   *queryserve.Server
	hts   *httptest.Server
	meter *serviceMeter // traced pass only
	n     int           // corpus records
	seed  uint64
	// hotETags are the validators of the hot set, filled by warm.
	hotETags []string
	// published numbers the records publish operations have made.
	published int
}

func (q *queryServer) close() { q.hts.Close() }

func (q *queryServer) key(i int) string { return fmt.Sprintf("ins%07d", 1500000+i) }

func startQueryServer(c *runCtx, records, datasets, cacheSize int) (*queryServer, error) {
	srv, err := queryserve.NewServer(queryserve.Config{
		Archive: hepdata.NewArchive(), Catalog: catalog.New(), CacheSize: cacheSize,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: query server: %w", err)
	}
	for i := 0; i < records; i++ {
		if _, err := srv.PublishRecord(corpusRecord(c.seed, i)); err != nil {
			return nil, fmt.Errorf("bench: publishing corpus record %d: %w", i, err)
		}
	}
	for i := 0; i < datasets; i++ {
		if _, err := srv.PublishDataset(corpusDataset(i)); err != nil {
			return nil, fmt.Errorf("bench: publishing corpus dataset %d: %w", i, err)
		}
	}
	q := &queryServer{srv: srv, n: records, seed: c.seed}
	h := srv.Handler()
	if c.tr != nil {
		q.meter = &serviceMeter{tr: c.tr, layer: "queryserve"}
		h = q.meter.wrap(h)
	}
	q.hts = httptest.NewServer(h)
	return q, nil
}

// serviceMeter is the http.Handler the benchmark puts around a server's
// Handler() in a traced pass: one span and one service-time sample per
// request, filed under the class the client named.
type serviceMeter struct {
	tr    *Tracer
	layer string

	mu sync.Mutex
	us map[string][]float64
}

func (m *serviceMeter) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		class := r.Header.Get(classHeader)
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		span := m.tr.Begin(parent, m.layer, class)
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t0)
		m.tr.End(span, 0, 0)
		m.mu.Lock()
		if m.us == nil {
			m.us = make(map[string][]float64)
		}
		m.us[class] = append(m.us[class], float64(d)/1e3)
		m.mu.Unlock()
	})
}

// p50 is the median service time of a class in microseconds.
func (m *serviceMeter) p50(class string) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return percentile(m.us[class], 50)
}

// qclient is one load-generating connection: its own transport, so C
// clients hold C keep-alive connections.
type qclient struct {
	c    *runCtx
	base string
	hc   *http.Client
	// lat collects latency samples in microseconds by class.
	lat [][]float64
}

func newQClient(c *runCtx, base string) *qclient {
	return &qclient{
		c: c, base: base,
		hc:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		lat: make([][]float64, len(queryClasses)),
	}
}

func (q *qclient) close() { q.hc.CloseIdleConnections() }

// do issues one request, checks what came back, and returns its ETag and
// its latency in microseconds. The latency runs from `due` (the send time
// of a closed-loop request, the scheduled time of an open-loop one) to
// the last body byte, and is also filed under the op's class.
func (q *qclient) do(o qop, due time.Time) (etag string, us float64) {
	className := queryClasses[o.class]
	var rd io.Reader
	method := http.MethodGet
	if o.body != nil {
		rd, method = bytes.NewReader(o.body), http.MethodPost
	}
	req, err := http.NewRequest(method, q.base+o.target, rd)
	if err != nil {
		q.c.tally.check(false, "query %s: %v", o.target, err)
		return "", 0
	}
	if o.validator != "" {
		req.Header.Set("If-None-Match", o.validator)
	}
	var span int64
	if q.c.tr != nil {
		span = q.c.tr.Begin(q.c.tr.Lookup(phaseKey), "loadgen", className)
		req.Header.Set(classHeader, className)
		req.Header.Set(spanHeader, strconv.FormatInt(span, 10))
	}
	resp, err := q.hc.Do(req)
	if err != nil {
		q.c.tr.End(span, 0, 0)
		q.c.tally.check(false, "query %s: %v", o.target, err)
		return "", 0
	}
	var body []byte
	if o.sample || o.wantTotal >= 0 {
		body, err = io.ReadAll(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	resp.Body.Close()
	us = float64(time.Since(due)) / 1e3
	q.lat[o.class] = append(q.lat[o.class], us)
	q.c.tr.End(span, resp.ContentLength, 0)

	etag = resp.Header.Get("ETag")
	ok := err == nil && resp.StatusCode == o.wantStatus()
	note := ""
	switch {
	case !ok:
		note = fmt.Sprintf("status %d, want %d (err %v)", resp.StatusCode, o.wantStatus(), err)
	case o.sample:
		rec, derr := hepdata.DecodeRecord(body)
		if derr != nil {
			ok, note = false, "undecodable body: "+derr.Error()
			break
		}
		want, eerr := queryserve.RecordETag(rec)
		if eerr != nil || want != etag {
			ok, note = false, fmt.Sprintf("ETag %s, body digests to %s", etag, want)
		}
	case o.wantTotal >= 0:
		var page struct {
			Total int `json:"total"`
		}
		if jerr := json.Unmarshal(body, &page); jerr != nil || page.Total != o.wantTotal {
			ok, note = false, fmt.Sprintf("search total %d, corpus implies %d", page.Total, o.wantTotal)
		}
	}
	q.c.tally.check(ok, "query %s: %s", o.target, note)
	return etag, us
}

// closedLoop runs the ops across the clients, each sending its next
// request when the previous one is answered.
func closedLoop(clients []*qclient, ops []qop) {
	var wg sync.WaitGroup
	for w, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(ops); i += len(clients) {
				cl.do(ops[i], time.Now())
			}
		}()
	}
	wg.Wait()
}

// sliced runs the ops closed loop as `slices` equal slices of a phase on
// the timer, so one stall costs one slice, not the phase.
func sliced(c *runCtx, tm *timer, name string, clients []*qclient, ops []qop, slices int) {
	slices = min(slices, len(ops))
	for k := 0; k < slices; k++ {
		part := ops[k*len(ops)/slices : (k+1)*len(ops)/slices]
		c.timed(tm, name, float64(len(part)), func() { closedLoop(clients, part) })
	}
}

// openLoop sends op i at due[i] after the start regardless of how the
// earlier ones fared: each client takes every len(clients)-th arrival,
// sleeps until it is due, and times it from the due time, so a stall
// shows in the latency of the requests queued behind it. It returns each
// op's latency and how late its send began, in microseconds.
func openLoop(clients []*qclient, ops []qop, due []time.Duration) (lat, late []float64) {
	start := time.Now()
	lat, late = make([]float64, len(ops)), make([]float64, len(ops))
	var wg sync.WaitGroup
	for w, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(ops); i += len(clients) {
				at := start.Add(due[i])
				if d := time.Until(at); d > 0 {
					time.Sleep(d)
				}
				late[i] = float64(time.Since(at)) / 1e3
				_, lat[i] = cl.do(ops[i], at)
			}
		}()
	}
	wg.Wait()
	return lat, late
}

// windowed splits samples taken in time order into equal windows and
// returns the median over windows of each window's p-th percentile: a
// burst moves one window's tail, not the run's.
func windowed(samples []float64, windows int, p float64) float64 {
	if windows > len(samples) {
		windows = len(samples)
	}
	per := make([]float64, windows)
	for k := range per {
		per[k] = percentile(samples[k*len(samples)/windows:(k+1)*len(samples)/windows], p)
	}
	return median(per)
}

// pooled gathers one class's samples over clients.
func pooled(clients []*qclient, class int) []float64 {
	var out []float64
	for _, cl := range clients {
		out = append(out, cl.lat[class]...)
	}
	return out
}

func resetSamples(clients []*qclient) {
	for _, cl := range clients {
		for k := range cl.lat {
			cl.lat[k] = cl.lat[k][:0]
		}
	}
}

// hotOp is a lookup in the hot set; every third is a revalidation.
func (q *queryServer) hotOp(rng *xrand.Rand, hot, n int) qop {
	k := rng.Intn(hot)
	o := qop{class: classHot, target: "/records/" + q.key(k), wantTotal: -1, sample: n%64 == 0}
	if n%3 == 0 && q.hotETags[k] != "" {
		o.class, o.validator, o.sample = classRevalidate, q.hotETags[k], false
	}
	return o
}

// coldOp is one operation of the given class outside the hot set.
func (q *queryServer) coldOp(rng *xrand.Rand, class, n int) qop {
	o := qop{class: class, wantTotal: -1}
	switch class {
	case classCold:
		o.target = "/records/" + q.key(rng.Intn(q.n))
		o.sample = n%64 == 0
	case classSearch:
		s := fixedSearches[n%len(fixedSearches)]
		o.target, o.wantTotal = s.target(), s.wantHits(q.n)
	case classScan:
		cur := queryserve.Cursor{Key: q.key(rng.Intn(q.n))}
		o.target = "/records?limit=50&cursor=" + cur.Encode()
	case classExport:
		format := []string{"csv", "yaml"}[n%2]
		o.target = "/records/" + q.key(rng.Intn(q.n)) + "/export?format=" + format
	case classPublish:
		q.published++
		body, err := hepdata.EncodeRecord(publishedRecord(q.seed, q.published))
		if err != nil {
			panic(fmt.Sprintf("bench: generated record does not validate: %v", err))
		}
		o.target, o.body = "/records", body
	}
	return o
}

// mixOps draws n operations from a class mix given in percent; classes
// drawn as classHot expand into the hot/revalidate pair.
func (q *queryServer) mixOps(rng *xrand.Rand, n, hot int, percent map[int]int) []qop {
	var wheel []int
	for class := classHot; class <= classPublish; class++ {
		for i := 0; i < percent[class]; i++ {
			wheel = append(wheel, class)
		}
	}
	ops := make([]qop, n)
	for i := range ops {
		if class := wheel[rng.Intn(len(wheel))]; class == classHot {
			ops[i] = q.hotOp(rng, hot, i)
		} else {
			ops[i] = q.coldOp(rng, class, i)
		}
	}
	return ops
}

// warm fetches every hot key once, filling the server's cache and the
// validators the revalidations send.
func (q *queryServer) warm(cl *qclient, hot int) {
	q.hotETags = make([]string, hot)
	for k := 0; k < hot; k++ {
		o := qop{class: classHot, target: "/records/" + q.key(k), wantTotal: -1}
		q.hotETags[k], _ = cl.do(o, time.Now())
	}
}

type queryState struct{ q *queryServer }

func (s *queryState) close() { s.q.close() }

func setUpQuery(c *runCtx) (state, error) {
	// The corpus's size against the cache is the workload's point, not its
	// duration.
	q, err := startQueryServer(c, c.shrunk(queryRecords, 600), c.shrunk(queryDatasets, 40), 0)
	if err != nil {
		return nil, err
	}
	return &queryState{q}, nil
}

func runQuery(c *runCtx, st state, v values) error {
	q := st.(*queryState).q
	hot := queryHotKeys
	if hot > q.n/2 {
		hot = q.n / 2
	}
	clients := make([]*qclient, c.clients)
	for i := range clients {
		clients[i] = newQClient(c, q.hts.URL)
		defer clients[i].close()
	}
	rng := xrand.New(c.seed ^ 0x9e7)
	q.warm(clients[0], hot)
	resetSamples(clients)
	before := q.srv.Stats()

	cachedOps := q.mixOps(rng, c.count(queryCachedOps, 300), hot, map[int]int{classHot: 100})
	coldOps := q.mixOps(rng, c.count(queryColdOps, 200), hot,
		map[int]int{classCold: 60, classSearch: 15, classScan: 10, classExport: 10, classPublish: 5})
	rateN := c.count(int(queryRate*queryRateSecs), 200)
	rateOps := q.mixOps(rng, rateN, hot,
		map[int]int{classHot: 70, classCold: 15, classSearch: 5, classScan: 4, classExport: 4, classPublish: 2})
	due := arrivals(c.seed^0xa771, rateN, queryRate)

	// The closed-loop phases are the timed part. The open-loop phase runs
	// to a schedule, so its wall time says nothing; it gives the latencies.
	tm := timer{host: c.host}
	sliced(c, &tm, "cached", clients, cachedOps, querySlices)
	sliced(c, &tm, "cold", clients, coldOps, querySlices)
	tm.into(v)
	v["query_cached_rps"] = tm.rate("cached")
	v["query_cold_rps"] = tm.rate("cold")
	for class, name := range queryClasses {
		s := pooled(clients, class)
		v["queryserve."+name+"_p50_us"] = percentile(s, 50)
		v["queryserve."+name+"_p99_us"] = percentile(s, 99)
	}
	resetSamples(clients)

	var rate, late []float64
	c.phase("rate", func() { rate, late = openLoop(clients, rateOps, due) })
	v["query_p50_us"] = windowed(rate, queryRateWindows, 50)
	v["query_p99_us"] = windowed(rate, queryRateWindows, 99)
	v["loadgen.late_p99_us"] = percentile(late, 99)
	c.logf("query: cached %d at %.0f/s, cold %d at %.0f/s: %s; rate %d at %d/s: p50 %.0fus p99 %.0fus, late p50 %.0fus p99 %.0fus",
		len(cachedOps), v["query_cached_rps"], len(coldOps), v["query_cold_rps"], timedLine(v), rateN, queryRate,
		v["query_p50_us"], v["query_p99_us"], percentile(late, 50), v["loadgen.late_p99_us"])

	after := q.srv.Stats()
	hits := float64(after.Cache.Hits - before.Cache.Hits)
	misses := float64(after.Cache.Misses - before.Cache.Misses)
	v["queryserve.cache_hit_ratio"] = ratio(hits, hits+misses)
	v["queryserve.cache_evictions"] = float64(after.Cache.Evictions - before.Cache.Evictions)
	v["queryserve.coalesced"] = float64(after.Cache.Coalesced - before.Cache.Coalesced)
	v["queryserve.not_modified"] = float64(after.NotModified - before.NotModified)
	v["queryserve.index_terms"] = float64(after.IndexTerms)
	if q.meter != nil {
		for _, name := range queryClasses {
			v["queryserve.service_p50_us."+name] = q.meter.p50(name)
		}
		v["queryserve.wire_p50_us"] = v["queryserve.hot_lookup_p50_us"] - q.meter.p50(queryClasses[classHot])
	}
	return nil
}
