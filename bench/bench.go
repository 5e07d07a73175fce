// Package bench is the end-to-end benchmark of the preservation chain:
// five workloads that drive the layers through their public functions,
// check what comes back, and report the end-to-end and per-layer metrics
// listed in BENCHMARK.json. README.md says why each workload exists and
// which layer should move which number.
//
// The package imports the layers under test and nothing that generates
// faults: it owns its corpus and arrival-schedule generators, and it
// starts the daemons in process behind real loopback listeners.
package bench

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Options selects one benchmark run.
type Options struct {
	// Workload is one of Workloads.
	Workload string
	// Seed makes the inputs: the same seed gives the same inputs.
	Seed uint64
	// Scale multiplies every count. 1 sizes each workload's timed part
	// for about RunSeconds on two cores; the unit tests use 1/50.
	Scale float64
	// Trace repeats the workload with spans recorded and reports the
	// per-layer metrics in place of the end-to-end ones.
	Trace bool
	// OutDir receives trace-<workload>.json from a traced run.
	OutDir string
	// TmpDir holds ledgers and journals; it must exist.
	TmpDir string
	// Log receives one progress line per phase; nil discards them.
	Log io.Writer
}

// Env is recorded with every result, so a number can be traced to the
// machine shape and inputs that produced it.
type Env struct {
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Clients    int     `json:"clients"`
	Seed       uint64  `json:"seed"`
	Scale      float64 `json:"scale"`
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is one run's outcome. Metrics holds every end-to-end metric of
// an untraced run, or every per-layer metric of a traced one.
type Result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]Metric
	// Failures are the first few failed checks, for the human reader.
	Failures []string
	// TracePath names the span file a traced run wrote.
	TracePath string
}

// Workloads lists the workload names in the order run.sh runs them.
var Workloads = []string{"produce", "preserve", "query", "recast", "chain"}

// values is what a workload hands back: metric name → measured value.
type values map[string]float64

// workload is the shape all five share. setUp builds inputs and daemons
// (timed as setup_s, several times per run); run does the timed work on
// the state setUp returned, slice by slice on a timer, counting operations
// on the tally and adding its metrics — wall_s and cpu_s of the timed part
// among them — to the values.
type workload struct {
	setUp func(*runCtx) (state, error)
	run   func(*runCtx, state, values) error
}

// state is a workload's set-up product; close stops its daemons and
// removes its files.
type state interface{ close() }

var registry = map[string]workload{
	"produce":  {setUpProduce, runProduce},
	"preserve": {setUpPreserve, runPreserve},
	"query":    {setUpQuery, runQuery},
	"recast":   {setUpRecast, runRecast},
	"chain":    {setUpChain, runChain},
}

// runCtx is what one pass over a workload works with.
type runCtx struct {
	seed    uint64
	scale   float64
	workers int // GOMAXPROCS: pipeline, audit and RECAST worker pools
	clients int // load-generating goroutines/connections
	tmp     string
	tr      *Tracer // nil in an untraced pass
	root    int64   // span of the timed part, parent of the phase spans
	tally   *tally
	logw    io.Writer
	host    *hostClock // nil in unit tests: times are then taken as they are
}

func (c *runCtx) logf(format string, args ...any) {
	if c.logw != nil {
		fmt.Fprintf(c.logw, format+"\n", args...)
	}
}

// count scales a full-size count, never below min.
func (c *runCtx) count(full, min int) int {
	n := int(float64(full)*c.scale + 0.5)
	if n < min {
		n = min
	}
	return n
}

// shrunk is count for sizes that fix a workload's shape (a corpus against
// a cache, a sample's blob sizes): they follow the scale down, so a smoke
// test is small, but never up — a longer run repeats more, not bigger.
func (c *runCtx) shrunk(full, min int) int {
	if c.scale >= 1 {
		return full
	}
	return c.count(full, min)
}

// tally counts operations attempted and failed across goroutines.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64

	mu    sync.Mutex
	notes []string
}

// ok counts n operations that succeeded.
func (t *tally) ok(n int) { t.attempted.Add(int64(n)) }

// check counts one operation, failed unless cond holds.
func (t *tally) check(cond bool, format string, args ...any) bool {
	t.attempted.Add(1)
	if cond {
		return true
	}
	t.failed.Add(1)
	t.mu.Lock()
	if len(t.notes) < 10 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
	return false
}

// clientCount is C = min(nproc, 4): enough connections to load two to
// four cores from one process without the generator becoming the system
// under test.
func clientCount() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	if n < 1 {
		n = 1
	}
	return n
}

// EnvFor describes the machine and inputs of a run.
func EnvFor(opt Options, commit string) Env {
	return Env{
		GoVersion: runtime.Version(), Commit: commit,
		GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: clientCount(),
		Seed: opt.Seed, Scale: opt.Scale,
	}
}

// cpuTime is the user plus system CPU this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set. Linux reports
// ru_maxrss in KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// timer measures the timed part slice by slice. A workload cuts its fixed
// work into many like slices per phase (production runs, preservation
// rounds, groups of requests) and times each one; what stands between
// slices — output checks, emptying the fleet — is on no clock.
//
// wall_s and cpu_s are estimates from those slices, not their sum: per
// phase, the lower quartile of the time a unit of work took, times the
// units done. Interference from the shared host only ever adds time to a
// slice, so the faster slices say what the code costs and the slower ones
// say what the neighbours were doing; the sum follows the neighbours.
// That takes care of interference shorter than the run. The host's longer
// slow spells are taken out by the host clock, which ticks before every
// slice: into reports the estimates multiplied by its speed.
// bench.elapsed_s, the plain sum of the slices, is logged and traced
// beside them.
type timer struct {
	phases []*phaseTimes
	host   *hostClock
}

// phaseTimes holds one phase's slices: seconds of wall and CPU per unit
// of work, and the units done in all.
type phaseTimes struct {
	name      string
	work      float64
	wall, cpu []float64
	elapsed   time.Duration
}

func (t *timer) phase(name string) *phaseTimes {
	for _, p := range t.phases {
		if p.name == name {
			return p
		}
	}
	p := &phaseTimes{name: name}
	t.phases = append(t.phases, p)
	return p
}

// slice runs fn as one slice of the named phase that does `work` units
// (events, bytes, requests).
func (t *timer) slice(name string, work float64, fn func()) {
	p := t.phase(name)
	t.host.tick()
	t0, c0 := time.Now(), cpuTime()
	fn()
	d, c := time.Since(t0), cpuTime()-c0
	p.work += work
	p.wall = append(p.wall, d.Seconds()/work)
	p.cpu = append(p.cpu, c.Seconds()/work)
	p.elapsed += d
}

// sliceQuantile is the percentile of a phase's per-unit times that stands
// for the phase: the lower quartile.
const sliceQuantile = 25

// wall and cpu are the estimates, elapsed the time the slices really took.
func (t *timer) wall() (s float64) {
	for _, p := range t.phases {
		s += percentile(p.wall, sliceQuantile) * p.work
	}
	return s
}

func (t *timer) cpu() (s float64) {
	for _, p := range t.phases {
		s += percentile(p.cpu, sliceQuantile) * p.work
	}
	return s
}

func (t *timer) elapsed() (d time.Duration) {
	for _, p := range t.phases {
		d += p.elapsed
	}
	return d
}

// rate is a phase's units of work per second, from the same estimate.
func (t *timer) rate(name string) float64 {
	return ratio(1, percentile(t.phase(name).wall, sliceQuantile))
}

// into reports the timed part: the two metrics every workload measures,
// in the reference host's seconds, with what they were made from.
func (t *timer) into(v values) {
	speed := t.host.speed()
	v["wall_s"] = t.wall() * speed
	v["cpu_s"] = t.cpu() * speed
	v["bench.elapsed_s"] = t.elapsed().Seconds()
	v["host.kernel_ms"] = t.host.kernelMs()
	v["host.speed"] = speed
}

// timedLine words what into reported, for a workload's progress line.
func timedLine(v values) string {
	return fmt.Sprintf("wall %.2fs cpu %.2fs at host speed %.3f (kernel %.2f ms), %.2fs elapsed",
		v["wall_s"], v["cpu_s"], v["host.speed"], v["host.kernel_ms"], v["bench.elapsed_s"])
}

// Run executes one workload and returns its result. An error means the
// harness could not run the workload at all; failed operations are
// counted in the result instead.
func Run(opt Options, commit string) (*Result, error) {
	w, ok := registry[opt.Workload]
	if !ok {
		return nil, fmt.Errorf("bench: unknown workload %q (have %v)", opt.Workload, Workloads)
	}
	if opt.Scale <= 0 {
		return nil, fmt.Errorf("bench: scale %v must be positive", opt.Scale)
	}
	t := &tally{}
	base := runCtx{
		seed: opt.Seed, scale: opt.Scale,
		workers: runtime.GOMAXPROCS(0), clients: clientCount(),
		tmp: opt.TmpDir, tally: t, logw: opt.Log,
	}
	base.host = newHostClock(base.workers)
	env := EnvFor(opt, commit)

	res := &Result{Metrics: make(map[string]Metric)}
	var err error
	if opt.Trace {
		err = runTraced(opt, env, w, base, res)
	} else {
		err = runUntraced(opt, w, base, res)
	}
	if err != nil {
		return nil, err
	}
	res.Attempted = int(t.attempted.Load())
	res.Failed = int(t.failed.Load())
	res.Correct = res.Failed == 0 && res.Attempted > 0
	res.Failures = t.notes
	return res, nil
}

// timedSetUp runs set-up repeatedly and returns the last state with the
// set-up time: like wall_s, the lower quartile of the repeats times the
// host clock's speed over them. Set-ups that take milliseconds are
// repeated more; each earlier state is closed before the next is built.
func timedSetUp(w workload, c *runCtx) (state, float64, error) {
	const (
		minReps = 3
		maxReps = 16
	)
	enoughMs := 1500 * min(1, c.scale)
	var (
		st    state
		times []float64
		total float64
	)
	c.host.reset()
	for len(times) < minReps || (total < enoughMs && len(times) < maxReps) {
		if st != nil {
			st.close()
		}
		c.host.tick()
		t0 := time.Now()
		var err error
		st, err = w.setUp(c)
		if err != nil {
			return nil, 0, err
		}
		ms := float64(time.Since(t0)) / 1e6
		times = append(times, ms)
		total += ms
	}
	c.host.tick()
	speed := c.host.speed()
	c.logf("set-up: %.0f ms, host speed %.3f", times, speed)
	return st, percentile(times, sliceQuantile) / 1000 * speed, nil
}

// runUntraced measures the end-to-end metrics: the four that mean the
// same on every workload.
func runUntraced(opt Options, w workload, c runCtx, res *Result) error {
	st, setupS, err := timedSetUp(w, &c)
	if err != nil {
		return fmt.Errorf("bench: %s set-up: %w", opt.Workload, err)
	}
	defer st.close()
	runtime.GC()
	c.host.reset()
	v := make(values)
	if err := w.run(&c, st, v); err != nil {
		return fmt.Errorf("bench: %s: %w", opt.Workload, err)
	}
	v["setup_s"] = setupS
	v["peak_rss_mb"] = peakRSSMB()
	for _, def := range EndToEnd {
		val, ok := v[def.Name]
		if !ok {
			return fmt.Errorf("bench: %s did not measure %s", opt.Workload, def.Name)
		}
		res.Metrics[def.Name] = Metric{Value: val, Unit: def.Unit}
	}
	return nil
}

// runTraced runs the workload untraced and then again with spans
// recorded; the per-layer metrics come from the second pass and
// trace.overhead_ratio from the two walls.
func runTraced(opt Options, env Env, w workload, base runCtx, res *Result) error {
	plain := base
	plain.tally = &tally{} // the traced pass is the one counted
	st, err := w.setUp(&plain)
	if err != nil {
		return fmt.Errorf("bench: %s set-up: %w", opt.Workload, err)
	}
	runtime.GC()
	plain.host.reset()
	untraced := make(values)
	err = w.run(&plain, st, untraced)
	st.close()
	if err != nil {
		return fmt.Errorf("bench: %s: %w", opt.Workload, err)
	}

	c := base
	c.tr = NewTracer()
	st, err = w.setUp(&c)
	if err != nil {
		return fmt.Errorf("bench: %s set-up: %w", opt.Workload, err)
	}
	defer st.close()
	runtime.GC()
	c.host.reset()
	v := make(values)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c.tr.Reset() // set-up's warm-up requests are not the workload's
	c.root = c.tr.Begin(0, "bench", opt.Workload)
	err = w.run(&c, st, v)
	c.tr.End(c.root, 0, 0)
	runtime.ReadMemStats(&after)
	if err != nil {
		return fmt.Errorf("bench: %s traced: %w", opt.Workload, err)
	}
	v["runtime.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	v["runtime.mallocs"] = float64(after.Mallocs - before.Mallocs)
	v["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	v["runtime.peak_heap_mb"] = float64(after.HeapSys) / (1 << 20)
	v["trace.overhead_ratio"] = v["wall_s"]/untraced["wall_s"] - 1

	spans := c.tr.Spans()
	if res.TracePath, err = writeTrace(opt.OutDir, opt.Workload, env, v["bench.elapsed_s"], spans); err != nil {
		return err
	}
	for _, def := range PerLayer {
		res.Metrics[def.Name] = Metric{Value: v[def.Name], Unit: def.Unit}
	}
	return nil
}

// Table renders a result's metrics as aligned text, one per line.
func (r *Result) Table() string {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	out := ""
	for _, n := range names {
		m := r.Metrics[n]
		out += fmt.Sprintf("  %-44s %16.6g %s\n", n, m.Value, m.Unit)
	}
	return out
}

// removeAll deletes a scratch directory, reporting failure on the log
// only: a leftover temp dir does not change what was measured.
func removeAll(c *runCtx, dir string) {
	if err := os.RemoveAll(dir); err != nil {
		c.logf("bench: removing %s: %v", dir, err)
	}
}
