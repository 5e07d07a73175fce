package rivet

import (
	"math"
	"testing"

	"daspos/internal/generator"
)

func TestV0MassPeaks(t *testing.T) {
	run, err := NewRun("DASPOS_2013_V0MASS")
	if err != nil {
		t.Fatal(err)
	}
	g := generator.NewV0(generator.DefaultConfig(31))
	for i := 0; i < 3000; i++ {
		_ = run.Process(g.Generate())
	}
	_ = run.Finalize()
	hs := run.Histograms()
	ks, lambda, flight := hs[0], hs[1], hs[2]
	if ks.Entries == 0 || lambda.Entries == 0 {
		t.Fatalf("empty V0 histograms: ks=%d lambda=%d", ks.Entries, lambda.Entries)
	}
	if peak := ks.BinCenter(ks.MaxBin()); math.Abs(peak-0.4976) > 0.01 {
		t.Fatalf("K_S peak at %v", peak)
	}
	if peak := lambda.BinCenter(lambda.MaxBin()); math.Abs(peak-1.1157) > 0.01 {
		t.Fatalf("Lambda peak at %v", peak)
	}
	// K_S flight distance: ctau=26.8mm boosted by gamma~2-10; the mean
	// must be centimetres, not microns or metres.
	if flight.Mean() < 10 || flight.Mean() > 150 {
		t.Fatalf("K_S mean flight %v mm", flight.Mean())
	}
}

func TestDLifetimeMeasurement(t *testing.T) {
	run, err := NewRun("DASPOS_2013_DLIFETIME")
	if err != nil {
		t.Fatal(err)
	}
	g := generator.NewDZero(generator.DefaultConfig(32))
	for i := 0; i < 5000; i++ {
		_ = run.Process(g.Generate())
	}
	_ = run.Finalize()
	tProper, mass := run.Histograms()[0], run.Histograms()[1]
	if tProper.Entries < 4000 {
		t.Fatalf("proper-time entries: %d", tProper.Entries)
	}
	// The preserved measurement: tau(D0) = 0.41 ps, read off as the mean
	// of the exponential proper-time spectrum; 15% tolerance.
	tau := tProper.Mean()
	if math.Abs(tau-0.4101)/0.4101 > 0.15 {
		t.Fatalf("fitted lifetime %v ps, want ~0.41", tau)
	}
	if peak := mass.BinCenter(mass.MaxBin()); math.Abs(peak-1.8648) > 0.02 {
		t.Fatalf("D0 mass peak at %v", peak)
	}
}

func TestDisplacedAnalysesIgnoreOtherProcesses(t *testing.T) {
	// Z events contain no V0s or D0s: the analyses must stay empty, not
	// fill garbage.
	run, _ := NewRun("DASPOS_2013_V0MASS", "DASPOS_2013_DLIFETIME")
	g := generator.NewDrellYanZ(generator.DefaultConfig(33))
	for i := 0; i < 100; i++ {
		_ = run.Process(g.Generate())
	}
	_ = run.Finalize()
	for _, h := range run.Histograms() {
		if h.Entries != 0 {
			t.Fatalf("%s filled %d entries from Z events", h.Name, h.Entries)
		}
	}
}
