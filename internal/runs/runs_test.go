package runs

import (
	"bytes"
	"io"
	"math"
	"strings"
	"sync"
	"testing"

	"daspos/internal/datamodel"
)

func seededRegistry(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()
	for run := uint32(100); run < 110; run++ {
		if err := r.Add(run, 10000, 5.5); err != nil {
			t.Fatal(err)
		}
	}
	// Runs 103 and 107 are bad; 109 stays unchecked.
	for run := uint32(100); run < 109; run++ {
		q := QualityGood
		var defects []string
		if run == 103 || run == 107 {
			q = QualityBad
			defects = []string{"toroid off"}
		}
		if err := r.SetQuality(run, q, defects...); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// recordOf returns the registry's record of a run.
func recordOf(r *Registry, run uint32) (Record, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	rec, ok := r.runs[run]
	if !ok {
		return Record{}, false
	}
	return *rec, true
}

// runsOf returns all run numbers of the registry, sorted.
func runsOf(r *Registry) []uint32 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.runsLocked()
}

func TestAddAndGet(t *testing.T) {
	r := seededRegistry(t)
	rec, ok := recordOf(r, 103)
	if !ok || rec.Quality != QualityBad || rec.Defects[0] != "toroid off" {
		t.Fatalf("run 103: %+v", rec)
	}
	if _, ok := recordOf(r, 999); ok {
		t.Fatal("phantom run")
	}
	if err := r.Add(100, 1, 1); err == nil {
		t.Fatal("duplicate run added")
	}
	if err := r.Add(200, -1, 1); err == nil {
		t.Fatal("negative events added")
	}
	if len(runsOf(r)) != 10 {
		t.Fatalf("runs: %d", len(runsOf(r)))
	}
}

func TestSetQualityRules(t *testing.T) {
	r := seededRegistry(t)
	if err := r.SetQuality(999, QualityGood); err == nil {
		t.Fatal("phantom run rated")
	}
	if err := r.SetQuality(100, Quality("excellent")); err == nil {
		t.Fatal("unknown quality accepted")
	}
	if err := r.SetQuality(100, QualityBad); err == nil {
		t.Fatal("bad verdict without defect accepted")
	}
}

func TestGoodRunList(t *testing.T) {
	r := seededRegistry(t)
	grl := r.BuildGoodRunList("physics", "v1")
	// 9 checked runs minus 2 bad = 7 good; the unchecked run is excluded.
	if len(grl.Runs) != 7 {
		t.Fatalf("good runs: %v", grl.Runs)
	}
	if grl.Contains(103) || grl.Contains(109) {
		t.Fatal("bad or unchecked run in the list")
	}
	if !grl.Contains(100) || !grl.Contains(108) {
		t.Fatal("good run missing")
	}
	if math.Abs(grl.LumiPb-7*5.5) > 1e-9 {
		t.Fatalf("lumi %v", grl.LumiPb)
	}
}

func TestGoodRunListJSON(t *testing.T) {
	r := seededRegistry(t)
	grl := r.BuildGoodRunList("physics", "v1")
	data, err := grl.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeGoodRunList(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.LumiPb != grl.LumiPb || len(got.Runs) != len(grl.Runs) {
		t.Fatal("round trip changed list")
	}
	if _, err := (&GoodRunList{}).Encode(); err == nil {
		t.Fatal("nameless list encoded")
	}
	if _, err := DecodeGoodRunList([]byte("{bad")); err == nil {
		t.Fatal("garbage decoded")
	}
	if _, err := DecodeGoodRunList([]byte(`{"name":"x","version":"1","runs":[5,3]}`)); err == nil {
		t.Fatal("unsorted list decoded")
	}
}

func TestSelectEvents(t *testing.T) {
	r := seededRegistry(t)
	grl := r.BuildGoodRunList("physics", "v1")
	var events []*datamodel.Event
	for run := uint32(100); run < 110; run++ {
		events = append(events, &datamodel.Event{Run: run, Number: uint64(run)})
	}
	kept := grl.SelectEvents(events)
	if len(kept) != 7 {
		t.Fatalf("kept %d", len(kept))
	}
	for _, e := range kept {
		if e.Run == 103 || e.Run == 107 || e.Run == 109 {
			t.Fatalf("bad-run event %d survived", e.Run)
		}
	}
}

func TestRegistryJSONRoundTrip(t *testing.T) {
	r := seededRegistry(t)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(runsOf(got)) != 10 {
		t.Fatalf("runs after reload: %d", len(runsOf(got)))
	}
	rec, _ := recordOf(got, 107)
	if rec.Quality != QualityBad {
		t.Fatalf("verdict lost: %+v", rec)
	}
	if _, err := ReadJSON(strings.NewReader("{bad")); err == nil {
		t.Fatal("garbage registry loaded")
	}
	if _, err := ReadJSON(strings.NewReader(`[{"run":1},{"run":1}]`)); err == nil {
		t.Fatal("duplicate runs loaded")
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	// Exercised under -race in CI: writers registering and rating runs while
	// readers walk, build good-run lists, and serialize the registry.
	r := NewRegistry()
	const runsPerWriter = 50
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint32(1000 * (w + 1))
			for i := uint32(0); i < runsPerWriter; i++ {
				run := base + i
				if err := r.Add(run, 100, 1.0); err != nil {
					t.Errorf("Add(%d): %v", run, err)
					return
				}
				if err := r.SetQuality(run, QualityGood); err != nil {
					t.Errorf("SetQuality(%d): %v", run, err)
					return
				}
			}
		}(w)
	}
	for reader := 0; reader < 4; reader++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for _, run := range runsOf(r) {
					if run == 0 {
						t.Error("zero run observed")
						return
					}
				}
				recordOf(r, 1000)
				r.BuildGoodRunList("physics", "race")
				if err := r.WriteJSON(io.Discard); err != nil {
					t.Errorf("WriteJSON: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := len(runsOf(r)); got != 4*runsPerWriter {
		t.Fatalf("registry holds %d runs, want %d", got, 4*runsPerWriter)
	}
	grl := r.BuildGoodRunList("physics", "final")
	if len(grl.Runs) != 4*runsPerWriter {
		t.Fatalf("good-run list holds %d runs, want %d", len(grl.Runs), 4*runsPerWriter)
	}
}
