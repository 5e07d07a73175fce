package recast

// Machine-independent gates on what a full-simulation request costs beyond
// its kernels — allocations per event, memory against sample size — and on
// what the streaming tally must keep of the collected sample's behaviour.

import (
	"context"
	"runtime"
	"runtime/metrics"
	"slices"
	"testing"

	"daspos/internal/leshouches"
)

// TestFullSimProcessAllocsPerEvent holds a 400-event request to the 8.9
// allocations per event measured, plus 20 %. What is left is what crosses a
// hand-off or leaves the generator: the generated event and its particle
// and vertex lists (three: the lists are sized from the stream's busiest
// event so far), the raw event and its words (two), the reconstructed
// event and its collections, and the request's own set-up — pipeline,
// reconstructor, geometry tables — spread over its events. What the budget
// forbids is a simulated event, a random stream, a key slice or a copied
// AOD event per event, lists regrown particle by particle, and an
// antiparticle's name built to look up its mass: the commit before the
// lists were sized measured 20.5, and the one before the simulated event
// was reused 51.
func TestFullSimProcessAllocsPerEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector; scripts/verify.sh runs this gate without it")
	}
	const events, budget = 400, 10.7
	backend, record := newFullSimBackend(t), highMassSearch()
	process := func() {
		if _, err := backend.Process(context.Background(), ModelSpec{Process: "zprime", MassGeV: 1000, Events: events, Seed: 11}, record); err != nil {
			t.Fatal(err)
		}
	}
	process() // warm: the digitiser pool, the runtime's own caches
	got := testing.AllocsPerRun(5, process) / events
	t.Logf("Process: %.1f allocations per event on a %d-event request", got, events)
	if got > budget {
		t.Fatalf("Process: %.1f allocations per event on a %d-event request, want at most %.1f", got, events, budget)
	}
}

// TestFullSimMemoryIndependentOfEvents: the live heap while Process runs —
// what a collection forced from the cut-flow sink marks reachable, at fifty
// evenly spaced tallies — must not follow the request's event count. While
// the sink is busy the stages upstream fill their batches and wait, so what
// is in flight is bounded by the pipeline's batches, whatever else the
// machine runs. A back end that collects its sample before analysing it
// holds a few hundred bytes an event, and at 20,000 events shows nearly
// three times what it does at 2,000.
func TestFullSimMemoryIndependentOfEvents(t *testing.T) {
	if raceEnabled {
		t.Skip("twenty thousand events take too long under the race detector; scripts/verify.sh runs this gate without it")
	}
	backend, record := newFullSimBackend(t), highMassSearch()
	const samplesPerRequest = 50
	// liveHeap is the median of the samples. How full the batches in flight
	// are at a sample varies by a few hundred KB either way; the median of
	// fifty does not.
	liveHeap := func(events int) uint64 {
		var samples []uint64
		live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tallyHook = func(tallied int) {
			if tallied%(events/samplesPerRequest) == 0 {
				runtime.GC()
				metrics.Read(live)
				samples = append(samples, live[0].Value.Uint64())
			}
		}
		defer func() { tallyHook = nil }()
		if _, err := backend.Process(context.Background(), ModelSpec{Process: "zprime", MassGeV: 1000, Events: events, Seed: 3}, record); err != nil {
			t.Fatal(err)
		}
		if len(samples) != samplesPerRequest {
			t.Fatalf("%d events: %d heap samples, want %d", events, len(samples), samplesPerRequest)
		}
		slices.Sort(samples)
		return samples[len(samples)/2]
	}
	small, large := liveHeap(2000), liveHeap(20000)
	t.Logf("live heap, median of fifty tallies: %d KB at 2,000 events, %d KB at 20,000", small>>10, large>>10)
	if float64(large) > 1.5*float64(small) {
		t.Fatalf("live heap grows with the request: %d KB at 2,000 events, %d KB at 20,000", small>>10, large>>10)
	}
}

// TestFullSimSelectionErrorIsTheRecordsOwn: a record Subscribe would have
// refused, handed to the back end directly, fails the request with the
// selection's own error — bare, as when the sample was collected and then
// walked — at any worker count, and only because some event reaches the
// broken cut.
func TestFullSimSelectionErrorIsTheRecordsOwn(t *testing.T) {
	broken := highMassSearch()
	broken.Selection[1].Variable = "os_pair:ghost"
	unreached := highMassSearch()
	unreached.Selection = append(unreached.Selection,
		leshouches.Cut{Variable: "inv_mass:sig_muon", Op: "<", Value: 0}, // nothing passes
		leshouches.Cut{Variable: "count:ghost", Op: ">", Value: 0})
	model := ModelSpec{Process: "zprime", MassGeV: 1000, Events: 120, Seed: 5}
	for _, workers := range []int{0, 3} {
		backend := newFullSimBackend(t)
		backend.Workers = workers
		_, err := backend.Process(context.Background(), model, broken)
		if want := `leshouches: cut references undefined object "ghost"`; err == nil || err.Error() != want {
			t.Fatalf("workers=%d: a cut on an undefined object fails the request with %v, want %s", workers, err, want)
		}
		res, err := backend.Process(context.Background(), model, unreached)
		if err != nil || res.Selected != 0 || res.Generated != model.Events {
			t.Fatalf("workers=%d: a broken cut no event reaches: %+v, %v", workers, res, err)
		}
	}
}
