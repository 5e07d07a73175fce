package hepdata

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"
)

// Edge cases of the uncertainty model and the CSV export: empty error
// lists, asymmetric-only components, zero-width bins — the shapes real
// HepData submissions contain and naive exporters break on.

func TestTotalErrorEdgeCases(t *testing.T) {
	// Empty error list is exactly zero, not NaN.
	if got := (Point{Y: 3}).TotalError(); got != 0 {
		t.Fatalf("no-error point: %v", got)
	}
	// Asymmetric-only component: symmetric average before quadrature.
	p := Point{Y: 10, Errors: []Uncertainty{{Label: "sys", Plus: 0.3, Minus: 0.1}}}
	if got, want := p.TotalError(), 0.2; math.Abs(got-want) > 1e-12 {
		t.Fatalf("asymmetric-only: %v want %v", got, want)
	}
	// Mixed symmetric and asymmetric components combine in quadrature.
	p.Errors = append(p.Errors, Uncertainty{Label: "stat", Plus: 0.4, Minus: 0.4})
	want := math.Sqrt(0.2*0.2 + 0.4*0.4)
	if got := p.TotalError(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("mixed: %v want %v", got, want)
	}
	// A zero-valued component contributes nothing.
	p.Errors = append(p.Errors, Uncertainty{Label: "lumi"})
	if got := p.TotalError(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("zero component moved the total: %v", got)
	}
}

// TestCSVEdgeCases: the points an export's err_total column is hardest on —
// a zero-width bin, no uncertainties, an asymmetric-only one — validate and
// total as the column contract says (the name dates from Table.CSV, which
// read them out as rows until PR 22).
func TestCSVEdgeCases(t *testing.T) {
	tab := Table{
		Name:    "Edge",
		XHeader: "M [GEV]",
		YHeader: "SIG [PB]",
		Points: []Point{
			// Zero-width bin: xlo == x == xhi, a threshold measurement.
			{X: 91.2, XLo: 91.2, XHi: 91.2, Y: 41.5, Errors: []Uncertainty{{Label: "stat", Plus: 0.3, Minus: 0.3}}},
			// No uncertainties at all.
			{X: 100, XLo: 95, XHi: 105, Y: 12},
			// Asymmetric only.
			{X: 120, XLo: 110, XHi: 130, Y: 2, Errors: []Uncertainty{{Label: "sys", Plus: 0.6, Minus: 0.2}}},
		},
	}
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	// Quadrature totals: symmetric, none, and the mean of an asymmetric pair.
	for i, want := range []float64{0.3, 0, 0.4} {
		if got := tab.Points[i].TotalError(); math.Abs(got-want) > 1e-12 {
			t.Fatalf("point %d total error %v, want %v", i, got, want)
		}
	}
}

// TestArchiveConcurrentAccess hammers the archive from writers and
// readers at once; run with -race. Reads must always see a consistent
// sorted listing and never a torn record.
func TestArchiveConcurrentAccess(t *testing.T) {
	a := NewArchive()
	const writers, perWriter = 4, 25
	var wg, writerWg sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func(w int) {
			defer writerWg.Done()
			for i := 0; i < perWriter; i++ {
				rec := &Record{
					InspireID:     fmt.Sprintf("%d%03d", w+1, i),
					Title:         "Concurrent submission",
					Collaboration: "DASPOS-GPD",
					Tables: []Table{{
						Name:   "T",
						Points: []Point{{X: 1, XLo: 0, XHi: 2, Y: 1}},
					}},
				}
				if _, err := a.Submit(rec); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent reader: listings stay sorted mid-write
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			ids := a.IDsAfter("", 1000)
			if !sort.StringsAreSorted(ids) {
				t.Error("listing unsorted under concurrent writes")
				return
			}
			a.Search("concurrent")
		}
	}()
	writerWg.Wait()
	close(stop)
	wg.Wait()
	if a.Len() != writers*perWriter {
		t.Fatalf("archive has %d records", a.Len())
	}
	// Submit deep-copies: mutating the caller's record afterwards must not
	// reach the archived copy.
	rec := &Record{
		InspireID:     "7777777",
		Title:         "Original title",
		Collaboration: "DASPOS-GPD",
		Tables:        []Table{{Name: "T", Points: []Point{{X: 1, XLo: 0, XHi: 2, Y: 5}}}},
	}
	if _, err := a.Submit(rec); err != nil {
		t.Fatal(err)
	}
	rec.Title = "Mutated"
	rec.Tables[0].Points[0].Y = -1
	got, err := a.Get("ins7777777")
	if err != nil {
		t.Fatal(err)
	}
	if got.Title != "Original title" || got.Tables[0].Points[0].Y != 5 {
		t.Fatalf("archived record shares memory with the caller: %+v", got)
	}
}

// TestIDsAfterKeyset pins the keyset-listing primitive: strictly-after
// semantics, stable order, and exact page boundaries.
func TestIDsAfterKeyset(t *testing.T) {
	a := NewArchive()
	for _, id := range []string{"300", "100", "200", "500", "400"} {
		rec := &Record{
			InspireID:     id,
			Title:         "t",
			Collaboration: "DASPOS-GPD",
			Tables:        []Table{{Name: "T", Points: []Point{{X: 1, XLo: 0, XHi: 2, Y: 1}}}},
		}
		if _, err := a.Submit(rec); err != nil {
			t.Fatal(err)
		}
	}
	page1 := a.IDsAfter("", 2)
	if len(page1) != 2 || page1[0] != "ins100" || page1[1] != "ins200" {
		t.Fatalf("page 1: %v", page1)
	}
	page2 := a.IDsAfter(page1[1], 2)
	if len(page2) != 2 || page2[0] != "ins300" || page2[1] != "ins400" {
		t.Fatalf("page 2: %v", page2)
	}
	page3 := a.IDsAfter(page2[1], 2)
	if len(page3) != 1 || page3[0] != "ins500" {
		t.Fatalf("page 3: %v", page3)
	}
	// An anchor between keys resumes at the next one; an anchor past the
	// end returns nothing.
	if got := a.IDsAfter("ins250", 10); len(got) != 3 || got[0] != "ins300" {
		t.Fatalf("between-keys anchor: %v", got)
	}
	if got := a.IDsAfter("ins999", 10); len(got) != 0 {
		t.Fatalf("past-the-end anchor: %v", got)
	}
}
