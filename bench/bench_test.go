package bench

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"daspos/internal/hepdata"
	"daspos/internal/recast"
)

// smokeScale is the 1/50 scale the workload smokes run at.
const smokeScale = 1.0 / 50

func smokeCtx(t *testing.T) *runCtx {
	t.Helper()
	return &runCtx{seed: 7, scale: smokeScale, workers: 2, clients: 2, tmp: t.TempDir(), tally: &tally{}}
}

func TestPercentile(t *testing.T) {
	s := []float64{50, 10, 40, 20, 30}
	for _, tc := range []struct{ p, want float64 }{{50, 30}, {95, 50}, {99, 50}, {20, 10}, {21, 20}, {100, 50}} {
		if got := percentile(s, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if s[0] != 50 {
		t.Error("percentile reordered its input")
	}
}

func TestMedianAndQuartilesMatchPythonStatistics(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := median(ten); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(ten); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	if q1, q3 := quartiles([]float64{3, 1, 4, 1, 5}); q1 != 1 || q3 != 4.5 {
		t.Errorf("quartiles = %v, %v, want 1, 4.5", q1, q3)
	}
	if got := spread(ten); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestWindowed(t *testing.T) {
	// Three windows with p100 of 3, 60, 9: the burst in the middle window
	// does not set the result.
	samples := []float64{1, 2, 3, 4, 60, 6, 7, 8, 9}
	if got := windowed(samples, 3, 100); got != 9 {
		t.Errorf("windowed = %v, want 9", got)
	}
}

func TestTimerEstimatesFromTheFasterSlices(t *testing.T) {
	// Two phases. Eight slices of 10 units at 2 s/unit, three of them hit
	// by a neighbour; four slices of 1 unit at 0.5 s/unit. The estimate
	// is the lower quartile of the per-unit time, times the units done.
	var tm timer
	a := tm.phase("a")
	a.wall = []float64{2, 2, 5, 2, 9, 2, 2, 3}
	a.cpu = []float64{4, 4, 6, 4, 4, 4, 4, 4}
	a.work = 80
	b := tm.phase("b")
	b.wall = []float64{0.5, 0.5, 0.5, 0.5}
	b.cpu = b.wall
	b.work = 4
	if got := tm.wall(); got != 2*80+0.5*4 {
		t.Errorf("wall = %v, want 162", got)
	}
	if got := tm.cpu(); got != 4*80+0.5*4 {
		t.Errorf("cpu = %v, want 322", got)
	}
	if got := tm.rate("b"); got != 2 {
		t.Errorf("rate of b = %v units/s, want 2", got)
	}
	// slice files time per unit of work under the phase's name.
	tm.slice("c", 4, func() { time.Sleep(2 * time.Millisecond) })
	c := tm.phase("c")
	if len(c.wall) != 1 || c.work != 4 || c.wall[0] != c.elapsed.Seconds()/4 || c.elapsed < 2*time.Millisecond || len(tm.phases) != 3 {
		t.Errorf("slice recorded %+v", c)
	}
}

func TestHostClockScalesTimesByTheKernel(t *testing.T) {
	// No clock (the unit tests), or no tick yet: times are taken as they are.
	var none *hostClock
	none.tick()
	none.reset()
	if none.speed() != 1 || none.kernelMs() != 0 {
		t.Errorf("nil clock: speed %v kernel %v", none.speed(), none.kernelMs())
	}
	h := newHostClock(2)
	if h.speed() != 1 {
		t.Errorf("speed before the first tick = %v", h.speed())
	}
	h.tick()
	h.tick()
	if len(h.ms) != 2 || !(h.ms[0] > 0) {
		t.Fatalf("two ticks recorded %v", h.ms)
	}
	// A host on which the kernel takes twice the reference time runs at
	// half speed, by the lower quartile of the samples; a timer on that
	// clock reports half the seconds it counted.
	h.ms = []float64{2 * kernelReferenceMs, 2 * kernelReferenceMs, 3 * kernelReferenceMs, 9 * kernelReferenceMs}
	if got := h.speed(); got != 0.5 {
		t.Errorf("speed = %v, want 0.5", got)
	}
	tm := timer{host: h}
	p := tm.phase("a")
	p.wall, p.cpu, p.work = []float64{3}, []float64{5}, 2
	v := make(values)
	tm.into(v)
	if v["wall_s"] != 3 || v["cpu_s"] != 5 || v["host.speed"] != 0.5 || v["host.kernel_ms"] != 2*kernelReferenceMs {
		t.Errorf("into reported %v", v)
	}
	h.reset()
	if len(h.ms) != 0 || h.speed() != 1 {
		t.Error("reset kept samples")
	}
	// The kernel is a fixed computation: the same state after the same ticks.
	a, b := newHostClock(1), newHostClock(1)
	a.tick()
	b.tick()
	if a.threads[0].x != b.threads[0].x {
		t.Error("two clocks computed different things")
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []Span{
		{ID: 1, Layer: "bench", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "cluster", Start: 10, End: 60},
		// Three replicas written at once: their union covers 15..55.
		{ID: 3, Parent: 2, Layer: "node", Start: 15, End: 40},
		{ID: 4, Parent: 2, Layer: "node", Start: 20, End: 55},
		{ID: 5, Parent: 2, Layer: "node", Start: 25, End: 30},
		// A child that outlives its parent is clipped to it.
		{ID: 6, Parent: 1, Layer: "cluster", Start: 90, End: 120},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 50 - 10, 2: 50 - 40, 3: 25, 4: 35, 5: 5, 6: 30}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	layers := layerSelfSeconds(spans)
	if got := layers["node"]; math.Abs(got-65e-9) > 1e-15 {
		t.Errorf("node self = %v", got)
	}
	total, own := spanSeconds(spans, self, "cluster", "")
	if math.Abs(total-80e-9) > 1e-15 || math.Abs(own-40e-9) > 1e-15 {
		t.Errorf("cluster total %v self %v", total, own)
	}

	// Wall shares: each instant goes to the childless running spans,
	// split evenly, so the three overlapping node spans do not count
	// three times. 0-10 bench, 10-15 cluster, 15-55 node, 55-60 cluster,
	// 60-90 bench, 90-120 cluster (the last 20 after the root ended).
	shares := wallShares(spans, func(s Span) string { return s.Layer })
	for layer, want := range map[string]float64{"bench": 40e-9, "cluster": 40e-9, "node": 40e-9} {
		if got := shares[layer]; math.Abs(got-want) > 1e-15 {
			t.Errorf("wall share of %s = %v, want %v", layer, got, want)
		}
	}
}

func TestTracerBindingsAndNil(t *testing.T) {
	var none *Tracer
	if id := none.Begin(0, "x", "y"); id != 0 {
		t.Errorf("nil tracer began span %d", id)
	}
	none.End(0, 0, 0)
	none.Bind("k", 1)
	if none.Lookup("k") != 0 || none.Spans() != nil {
		t.Error("nil tracer remembered something")
	}
	tr := NewTracer()
	a := tr.Begin(0, "bench", "root")
	tr.Bind("file:abc", a)
	if got := tr.Lookup("file:zzz", "file:abc"); got != a {
		t.Errorf("lookup = %d, want %d", got, a)
	}
	tr.Unbind("file:abc")
	if got := tr.Lookup("file:abc"); got != 0 {
		t.Errorf("lookup after unbind = %d", got)
	}
	tr.End(a, 7, 9)
	if s := tr.Spans()[0]; s.Bytes != 7 || s.Events != 9 || s.End < s.Start {
		t.Errorf("span %+v", s)
	}
	tr.Reset()
	if len(tr.Spans()) != 0 {
		t.Error("reset kept spans")
	}
}

func TestGeneratorsAreFunctionsOfTheSeed(t *testing.T) {
	enc := func(seed uint64, i int) []byte {
		data, err := hepdata.EncodeRecord(corpusRecord(seed, i))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if !bytes.Equal(enc(3, 17), enc(3, 17)) {
		t.Error("corpus record differs between two calls with one seed")
	}
	if bytes.Equal(enc(3, 17), enc(4, 17)) {
		t.Error("corpus record does not depend on the seed")
	}
	a, b := capsulePackage(5, 2), capsulePackage(5, 2)
	if !reflect.DeepEqual(a.files, b.files) || a.bytes != b.bytes {
		t.Error("capsule package differs between two calls with one seed")
	}
	if reflect.DeepEqual(a.files, capsulePackage(6, 2).files) {
		t.Error("capsule package does not depend on the seed")
	}
	for _, data := range a.files {
		if len(data) < 1<<10 || len(data) > 40<<10 {
			t.Errorf("capsule file of %d bytes, want 1-40 KB", len(data))
		}
	}
	if !reflect.DeepEqual(arrivals(9, 500, 2000), arrivals(9, 500, 2000)) {
		t.Error("arrival schedule differs between two calls with one seed")
	}
	sched := arrivals(9, 4000, 2000)
	for i := 1; i < len(sched); i++ {
		if sched[i] < sched[i-1] {
			t.Fatal("arrival schedule is not in time order")
		}
	}
	if mean := sched[len(sched)-1].Seconds() / float64(len(sched)); math.Abs(mean*2000-1) > 0.1 {
		t.Errorf("mean gap %.6fs at 2000/s", mean)
	}
	win := arrivalsFor(9, 2*time.Second, 100)
	if n := len(win); n < 150 || n > 250 || win[n-1] > 2*time.Second {
		t.Errorf("%d arrivals in a 2s window at 100/s, last at %v", n, win[n-1])
	}
}

func TestFixedSearchesHitPartOfTheCorpus(t *testing.T) {
	for _, s := range fixedSearches {
		if hits := s.wantHits(1200); hits == 0 || hits == 1200 {
			t.Errorf("search %q hits %d of 1200 records", s.query, hits)
		}
	}
}

// TestBenchmarkJSON holds the file at the repository root to the metric
// catalogue and to the limits of the benchmark contract.
func TestBenchmarkJSON(t *testing.T) {
	want, err := BenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from the catalogue; regenerate it with: go run ./bench/cmd/daspos-e2e -print-benchmark > BENCHMARK.json")
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(want))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(d MetricDef) {
		if !name.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or used twice", d.Name)
		}
		seen[d.Name] = true
		if !unit.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better %q", d.Name, d.Better)
		}
	}
	if n := len(EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	setup := false
	for _, d := range EndToEnd {
		check(d)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	for _, d := range PerLayer {
		check(d)
		if d.Layer == "" {
			t.Errorf("metric %s names no layer", d.Name)
		}
	}
	for _, w := range Workloads {
		why := workloadWhy[w]
		if why == "" || len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("workload %s: why of %d characters", w, len(why))
		}
		if _, ok := registry[w]; !ok {
			t.Errorf("workload %s is not registered", w)
		}
	}
}

// TestWorkloadSmoke runs every workload at 1/50 scale, untraced and
// traced: every operation must succeed, an untraced run must measure
// every end-to-end metric, and a traced run must write its spans.
func TestWorkloadSmoke(t *testing.T) {
	for _, w := range Workloads {
		t.Run(w, func(t *testing.T) {
			opt := Options{Workload: w, Seed: 11, Scale: smokeScale, TmpDir: t.TempDir(), OutDir: t.TempDir()}
			res, err := Run(opt, "test")
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("untraced: %d of %d operations failed: %v", res.Failed, res.Attempted, res.Failures)
			}
			for _, d := range EndToEnd {
				if m, ok := res.Metrics[d.Name]; !ok || !(m.Value > 0) || m.Unit != d.Unit {
					t.Errorf("untraced: metric %s = %+v (present %v)", d.Name, m, ok)
				}
			}
			if len(res.Metrics) != len(EndToEnd) {
				t.Errorf("untraced: %d metrics, want %d", len(res.Metrics), len(EndToEnd))
			}

			opt.Trace = true
			res, err = Run(opt, "test")
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Errorf("traced: %d of %d operations failed: %v", res.Failed, res.Attempted, res.Failures)
			}
			if len(res.Metrics) != len(PerLayer) {
				t.Errorf("traced: %d metrics, want %d", len(res.Metrics), len(PerLayer))
			}
			data, err := os.ReadFile(res.TracePath)
			if err != nil {
				t.Fatal(err)
			}
			var doc traceFile
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatal(err)
			}
			if len(doc.Spans) == 0 || doc.Workload != w || doc.Spans[0].Layer != "bench" {
				t.Errorf("trace holds %d spans for %q", len(doc.Spans), doc.Workload)
			}
			for _, s := range doc.Spans {
				if s.End < s.Start || (s.Parent != 0 && s.Parent >= s.ID) {
					t.Fatalf("span %+v is not well formed", s)
				}
			}
		})
	}
}

// TestChainTraceAccountsForItsWall: the chain is sequential, so the
// per-layer self times of its trace must add up to the traced wall.
func TestChainTraceAccountsForItsWall(t *testing.T) {
	c := smokeCtx(t)
	c.tr = NewTracer()
	st, err := setUpChain(c)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	c.tr.Reset()
	c.root = c.tr.Begin(0, "bench", "chain")
	v := make(values)
	if err := runChain(c, st, v); err != nil {
		t.Fatal(err)
	}
	c.tr.End(c.root, 0, 0)
	spans := c.tr.Spans()
	var sum float64
	for _, s := range wallShares(spans, func(s Span) string { return s.Layer }) {
		sum += s
	}
	root := float64(spans[0].End-spans[0].Start) / 1e9
	if math.Abs(sum-root) > 1e-6*root {
		t.Errorf("layer wall shares sum to %.6fs, root span is %.6fs", sum, root)
	}
	var rows float64
	for _, layer := range chainLayers {
		rows += v["chain.self_s."+layer]
	}
	if rows > root || rows < 0.5*root {
		t.Errorf("chain.self_s rows sum to %.4fs of a %.4fs wall", rows, root)
	}
	for _, layer := range []string{"produce", "cas", "cluster", "node", "queryserve", "recast"} {
		if v["chain.self_s."+layer] <= 0 {
			t.Errorf("chain.self_s.%s = %v", layer, v["chain.self_s."+layer])
		}
	}
	if c.tally.failed.Load() != 0 {
		t.Errorf("failed operations: %v", c.tally.notes)
	}
}

// The negative tests: each family of output checks must be able to fail.

func TestPreserveCountsADamagedReplica(t *testing.T) {
	c := smokeCtx(t)
	st, err := setUpPreserve(c)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	// Bit rot on one replica after it was written and read back. The
	// replica is the last in read preference, so the fixity audit (which
	// reads the first) passes; the sweep must find and repair it, which
	// the workload counts as a failed operation — a clean archive needs
	// no repair.
	st.(*preserveState).beforeAudit = func(f *fleet) {
		digest := f.nodes[0].Backend().Digests()[0]
		owners := f.client.Owners(digest)
		for _, nd := range f.nodes {
			if nd.ID() == owners[len(owners)-1] {
				if err := nd.Corrupt(digest); err != nil {
					t.Errorf("corrupting a replica: %v", err)
				}
			}
		}
	}
	if err := runPreserve(c, st, make(values)); err != nil {
		t.Fatal(err)
	}
	if c.tally.failed.Load() == 0 {
		t.Error("a corrupted replica went unnoticed")
	}
}

func TestProduceCountsATruncatedTier(t *testing.T) {
	c := smokeCtx(t)
	p, err := newPlant(c.seed)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.produceRun(c, 0, 1, 96, c.seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep.checkTiers(c.tally, 1)
	if c.tally.failed.Load() != 0 {
		t.Fatalf("intact tiers failed their checks: %v", c.tally.notes)
	}
	aod := rep.res.Artifacts[artAOD]
	aod.Data = aod.Data[:len(aod.Data)-3] // lose the trailer
	rep.checkTiers(c.tally, 1)
	if c.tally.failed.Load() != 1 {
		t.Errorf("a truncated tier counted %d failures, want 1", c.tally.failed.Load())
	}
	// And the streaming chain must differ from a reference at another seed.
	want, err := p.sequentialTiers(1, 96, c.seed+1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.res.Artifacts[artRaw].Digest() == want[artRaw] {
		t.Error("two seeds gave one RAW tier")
	}
}

func TestQueryCountsAWrongAnswer(t *testing.T) {
	c := smokeCtx(t)
	q, err := startQueryServer(c, 120, 12, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer q.close()
	cl := newQClient(c, q.hts.URL)
	defer cl.close()
	now := time.Now()
	good := fixedSearches[0]
	cl.do(qop{class: classSearch, target: good.target(), wantTotal: good.wantHits(q.n)}, now)
	etag, _ := cl.do(qop{class: classHot, target: "/records/" + q.key(3), wantTotal: -1, sample: true}, now)
	cl.do(qop{class: classRevalidate, target: "/records/" + q.key(3), validator: etag, wantTotal: -1}, now)
	if c.tally.failed.Load() != 0 {
		t.Fatalf("right answers failed their checks: %v", c.tally.notes)
	}
	cl.do(qop{class: classSearch, target: good.target(), wantTotal: good.wantHits(q.n) + 1}, now)
	cl.do(qop{class: classRevalidate, target: "/records/" + q.key(3), validator: `"stale"`, wantTotal: -1}, now)
	cl.do(qop{class: classCold, target: "/records/ins0000000", wantTotal: -1}, now)
	if got := c.tally.failed.Load(); got != 3 {
		t.Errorf("three wrong answers counted %d failures: %v", got, c.tally.notes)
	}
}

func TestRecastCountsARequestThatCannotFinish(t *testing.T) {
	c := smokeCtx(t)
	p, err := newPlant(c.seed)
	if err != nil {
		t.Fatal(err)
	}
	rig, err := startRecast(c, p)
	if err != nil {
		t.Fatal(err)
	}
	defer rig.close()
	ok := rig.submit("alice", recastModel(1, 20), time.Now())
	if ok.done == nil || ok.done.Status != recast.StatusDone || c.tally.failed.Load() != 0 {
		t.Fatalf("a valid request did not finish: %+v %v", ok, c.tally.notes)
	}
	// A mass outside the generator's validity is refused at the door.
	bad := recastModel(2, 20)
	bad.MassGeV = 10
	if out := rig.submit("alice", bad, time.Now()); out.done != nil || out.shed {
		t.Errorf("an invalid model was accepted: %+v", out)
	}
	if c.tally.failed.Load() != 1 {
		t.Errorf("an invalid model counted %d failures, want 1", c.tally.failed.Load())
	}
}

func TestCompareVerdicts(t *testing.T) {
	steady := func(centre float64) []float64 {
		return []float64{centre * 0.99, centre, centre * 1.01, centre * 0.995, centre * 1.005}
	}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"same", steady(100), steady(103), "lower", "same"},
		{"worse latency", steady(100), steady(115), "lower", "worse"},
		{"better latency", steady(100), steady(80), "lower", "better"},
		{"worse rate", steady(100), steady(85), "higher", "worse"},
		{"better rate", steady(100), steady(120), "higher", "better"},
		{"noisy", []float64{70, 100, 130, 90, 110}, []float64{75, 105, 125, 95, 100}, "lower", "unresolved"},
		{"noisy but every run better", []float64{70, 100, 130, 90, 110}, []float64{40, 50, 60, 45, 55}, "lower", "better"},
	} {
		if got, _ := verdict(tc.a, tc.b, tc.better, 0.10); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}

	dir := t.TempDir()
	env := Env{GoVersion: "go", GOMAXPROCS: 2}
	write := func(file string, wall float64) string {
		path := filepath.Join(dir, file)
		for i := 0; i < 3; i++ {
			line := ResultLine{Correct: true, Attempted: 10, Metrics: map[string]Metric{
				"wall_s": {Value: wall + float64(i)/100, Unit: "s"},
			}}
			if err := AppendRun(path, "produce", env, line); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	report, err := Compare(filepath.Join("..", "BENCHMARK.json"), write("a.jsonl", 7), write("b.jsonl", 10))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report, "wall_s") || !strings.Contains(report, "worse") {
		t.Errorf("report does not flag the regression:\n%s", report)
	}
}
