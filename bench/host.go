package bench

import (
	"bytes"
	"compress/flate"
	"sync"
	"time"

	"daspos/internal/xrand"
)

// hostClock says how fast the host is running right now, so that times
// taken in one of its slow spells and times taken in a quiet one can be
// told apart from a change in the code.
//
// The benchmark runs on a few cores of a shared host, and that host has
// regimes: for minutes at a time every workload here takes 20 to 50 per
// cent longer, in wall and in CPU time alike, and then it does not
// (README.md, "The host's regimes"). Nothing inside a fifteen-second run
// averages that out. What does follow it is a fixed piece of work that
// leans on the memory hierarchy the way the layers do, timed again and
// again between the slices of the workload: the reference kernel. A run
// reports its times multiplied by speed(), the kernel's time on the
// reference host in its quiet regime over the kernel's time during this
// run — seconds as the reference host would have counted them.
//
// The kernel touches nothing of the program under test: it allocates
// nothing after start-up, so it neither triggers nor pays for the
// program's garbage collection, and a change to the program cannot move
// it.
type hostClock struct {
	table   []uint64 // shared, read only
	threads []*kernelThread
	ms      []float64 // one kernel time per tick since the last reset
}

// kernelThread is one goroutine's private part of the kernel.
type kernelThread struct {
	text []byte
	fw   *flate.Writer
	out  bytes.Buffer
	x    uint64
}

const (
	// kernelReferenceMs is the kernel's lower-quartile time on the
	// reference host (2 vCPU, Xeon 2.1 GHz, GOMAXPROCS 2) in its quiet
	// regime. It only fixes the unit: a factor common to every run.
	kernelReferenceMs = 5.3

	kernelTableWords = 1 << 21 // 16 MiB: far outside any core's own caches
	kernelChaseSteps = 20000
	kernelTextBytes  = 64 << 10
)

// newHostClock builds the kernel's inputs for `threads` goroutines, the
// worker count the workloads themselves run at.
func newHostClock(threads int) *hostClock {
	rng := xrand.New(0x5eed)
	h := &hostClock{table: make([]uint64, kernelTableWords)}
	for i := range h.table {
		h.table[i] = rng.Uint64()
	}
	for i := 0; i < threads; i++ {
		t := &kernelThread{text: make([]byte, kernelTextBytes), x: uint64(i)}
		for k := range t.text {
			t.text[k] = byte(rng.Intn(16))
		}
		// NewWriter fails only on a level it does not know.
		t.fw, _ = flate.NewWriter(&t.out, flate.DefaultCompression)
		t.out.Grow(2 * kernelTextBytes)
		h.threads = append(h.threads, t)
	}
	return h
}

// run is the kernel on one thread: deflate a fixed text (hash chains and a
// window the size of a core's second-level cache, the cas layer's own
// inner loop), then a chain of dependent reads at random places in the
// table (what maps, indexes and pointer-rich event records do to the
// shared cache and to memory).
func (t *kernelThread) run(table []uint64) {
	t.out.Reset()
	t.fw.Reset(&t.out)
	// Writes into a bytes.Buffer do not fail.
	_, _ = t.fw.Write(t.text)
	_ = t.fw.Close()
	x := t.x + uint64(t.out.Len())
	mask := uint64(len(table) - 1)
	for i := 0; i < kernelChaseSteps; i++ {
		x = table[x&mask] + uint64(i)
	}
	t.x = x
}

// tick runs the kernel once on every thread at the same time and records
// how long that took. The timer ticks before each slice and the set-up
// loop before each set-up, so the samples are spread over the run.
func (h *hostClock) tick() {
	if h == nil {
		return
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	for _, t := range h.threads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t.run(h.table)
		}()
	}
	wg.Wait()
	h.ms = append(h.ms, float64(time.Since(t0))/1e6)
}

// reset forgets the samples: set-up and the timed part each take their
// own.
func (h *hostClock) reset() {
	if h != nil {
		h.ms = h.ms[:0]
	}
}

// kernelMs is the kernel's time since the last reset, by the same
// estimate the slices use; 0 before the first tick.
func (h *hostClock) kernelMs() float64 {
	if h == nil {
		return 0
	}
	return percentile(h.ms, sliceQuantile)
}

// speed is the host's speed since the last reset against the reference
// host's: below one in a slow spell. With no clock or no sample it is one.
func (h *hostClock) speed() float64 {
	if ms := h.kernelMs(); ms > 0 {
		return kernelReferenceMs / ms
	}
	return 1
}
