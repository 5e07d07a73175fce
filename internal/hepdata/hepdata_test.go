package hepdata

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"daspos/internal/hist"
)

func zTable() Table {
	return Table{
		Name:        "Table1",
		Description: "Z cross section vs pT",
		XHeader:     "PT [GEV]",
		YHeader:     "D(SIG)/D(PT) [PB/GEV]",
		Reactions:   []string{"P P --> Z0 X"},
		Observables: []string{"DSIG/DPT"},
		Points: []Point{
			{X: 5, XLo: 0, XHi: 10, Y: 12.3, Errors: []Uncertainty{{Label: "stat", Plus: 0.5, Minus: 0.5}, {Label: "sys", Plus: 0.4, Minus: 0.3}}},
			{X: 15, XLo: 10, XHi: 20, Y: 6.1, Errors: []Uncertainty{{Label: "stat", Plus: 0.3, Minus: 0.3}}},
		},
	}
}

func searchRecord() *Record {
	return &Record{
		InspireID:     "1200001",
		Title:         "Measurement of the Z boson transverse momentum",
		Collaboration: "DASPOS-GPD",
		Year:          2013,
		Abstract:      "Differential cross sections for Z production.",
		Tables:        []Table{zTable()},
	}
}

func TestPointTotalError(t *testing.T) {
	p := zTable().Points[0]
	want := math.Sqrt(0.5*0.5 + 0.35*0.35)
	if math.Abs(p.TotalError()-want) > 1e-12 {
		t.Fatalf("total error %v want %v", p.TotalError(), want)
	}
	if (Point{}).TotalError() != 0 {
		t.Fatal("empty point error")
	}
}

func TestTableValidate(t *testing.T) {
	good := zTable()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := zTable()
	bad.Name = ""
	if err := bad.Validate(); err == nil {
		t.Fatal("nameless table validated")
	}
	bad2 := zTable()
	bad2.Points = nil
	if err := bad2.Validate(); err == nil {
		t.Fatal("empty table validated")
	}
	bad3 := zTable()
	bad3.Points[0].XLo = 7 // x=5 outside [7,10]
	if err := bad3.Validate(); err == nil {
		t.Fatal("inconsistent bin validated")
	}
	bad4 := zTable()
	bad4.Points[0].Errors[0].Plus = -1
	if err := bad4.Validate(); err == nil {
		t.Fatal("negative uncertainty validated")
	}
	// JSON cannot carry NaN or an infinity, and a NaN also compares false
	// against the bin edges and against zero: each must be named, not passed.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, set := range []func(p *Point){
			func(p *Point) { p.X = bad },
			func(p *Point) { p.XLo = bad },
			func(p *Point) { p.XHi = bad },
			func(p *Point) { p.Y = bad },
			func(p *Point) { p.Errors[0].Plus = bad },
			func(p *Point) { p.Errors[1].Minus = bad },
		} {
			tab := zTable()
			set(&tab.Points[0])
			err := tab.Validate()
			if err == nil || !strings.Contains(err.Error(), `table "Table1" point 0: non-finite`) {
				t.Fatalf("non-finite %v in a point: %v", bad, err)
			}
		}
	}
}

func TestFromH1D(t *testing.T) {
	h := hist.NewH1D("m", 4, 0, 8)
	h.Fill(1)
	h.Fill(3)
	h.Fill(3)
	tab := FromH1D(h, "TableH", "M [GEV]", "N")
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tab.Points) != 4 {
		t.Fatalf("points: %d", len(tab.Points))
	}
	if tab.Points[1].Y != 2 || tab.Points[1].X != 3 {
		t.Fatalf("point 1: %+v", tab.Points[1])
	}
	if tab.Points[1].TotalError() != math.Sqrt(2) {
		t.Fatalf("stat error: %v", tab.Points[1].TotalError())
	}
	if tab.Points[0].XLo != 0 || tab.Points[3].XHi != 8 {
		t.Fatal("bin edges wrong")
	}
}

func TestSubmitAndGet(t *testing.T) {
	a := NewArchive()
	if _, err := a.Submit(searchRecord()); err != nil {
		t.Fatal(err)
	}
	r, err := a.Get("ins1200001")
	if err != nil {
		t.Fatal(err)
	}
	if r.Title == "" || r.InspireURL() != "https://inspirehep.net/record/1200001" {
		t.Fatalf("record: %+v", r)
	}
	if _, err := a.Submit(searchRecord()); err == nil {
		t.Fatal("duplicate submission accepted")
	}
	if _, err := a.Get("ins999"); err == nil {
		t.Fatal("phantom record")
	}
}

// TestValidateFindsDuplicateTables: a repeated table name is refused,
// naming the first table that repeats an earlier one, in records of a
// few tables and of many; a record of up to three tables, the most a
// record of the benchmark's or daspos-query's corpus holds, validates
// without allocating.
func TestValidateFindsDuplicateTables(t *testing.T) {
	for _, n := range []int{2, 3, 8, 9, 96} {
		r := searchRecord()
		r.Tables = nil
		for i := range n {
			tab := zTable()
			tab.Name = "Table" + strconv.Itoa(i)
			r.Tables = append(r.Tables, tab)
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("%d distinct tables: %v", n, err)
		}
		if allocs := testing.AllocsPerRun(10, func() { _ = r.Validate() }); n <= 3 && allocs != 0 {
			t.Errorf("%d distinct tables: Validate allocates %.0f times, want 0", n, allocs)
		}
		for _, at := range [][2]int{{0, 1}, {0, n - 1}, {n - 2, n - 1}} {
			r.Tables[at[1]].Name = r.Tables[at[0]].Name
			want := fmt.Sprintf("hepdata: record ins1200001 has duplicate table %q", r.Tables[at[0]].Name)
			if err := r.Validate(); err == nil || err.Error() != want {
				t.Errorf("%d tables, %d named as %d: got %v, want %s", n, at[1], at[0], err, want)
			}
			r.Tables[at[1]].Name = "Table" + strconv.Itoa(at[1])
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	a := NewArchive()
	r := searchRecord()
	r.InspireID = ""
	if _, err := a.Submit(r); err == nil {
		t.Fatal("record without Inspire ID accepted")
	}
	r2 := searchRecord()
	r2.Tables = append(r2.Tables, zTable()) // duplicate table name
	if _, err := a.Submit(r2); err == nil {
		t.Fatal("duplicate table names accepted")
	}
	r3 := searchRecord()
	r3.Tables = nil
	if _, err := a.Submit(r3); err == nil {
		t.Fatal("tableless record accepted")
	}
	// A NaN once archived could never be encoded, so never served.
	r4 := searchRecord()
	r4.Tables[0].Points[1].Y = math.NaN()
	if _, err := a.Submit(r4); err == nil {
		t.Fatal("record with a NaN value accepted")
	}
	r5 := searchRecord()
	r5.Tables[0].Points[0].Errors[1].Minus = math.NaN()
	if _, err := a.Submit(r5); err == nil {
		t.Fatal("record with a NaN uncertainty accepted")
	}
	if a.Len() != 0 {
		t.Fatalf("%d invalid records archived", a.Len())
	}
}

func TestSearch(t *testing.T) {
	a := NewArchive()
	_, _ = a.Submit(searchRecord())
	r2 := searchRecord()
	r2.InspireID = "1300077"
	r2.Title = "Search for new resonances in dimuon events"
	r2.Tables[0].Reactions = []string{"P P --> ZPRIME X"}
	_, _ = a.Submit(r2)

	if got := a.Search("transverse momentum"); len(got) != 1 || got[0].InspireID != "1200001" {
		t.Fatalf("title search: %d", len(got))
	}
	if got := a.Search("zprime"); len(got) != 1 || got[0].InspireID != "1300077" {
		t.Fatalf("reaction search: %d", len(got))
	}
	if got := a.Search(""); len(got) != 2 {
		t.Fatalf("all: %d", len(got))
	}
	if got := a.Search("warp drive"); len(got) != 0 {
		t.Fatalf("miss: %d", len(got))
	}
}

func TestLargeSearchPayload(t *testing.T) {
	// The "ATLAS search analysis with a very large amount of information"
	// use case: tables plus bulky auxiliary files.
	r := searchRecord()
	r.InspireID = "1400001"
	r.Aux = map[string][]byte{
		"cutflows/signal_region.json": make([]byte, 200000),
		"efficiency/grid_m_vs_x.csv":  make([]byte, 500000),
		"likelihood/workspace.json":   make([]byte, 900000),
	}
	a := NewArchive()
	if _, err := a.Submit(r); err != nil {
		t.Fatal(err)
	}
	got, _ := a.Get("ins1400001")
	if got.AuxBytes() != 1600000 {
		t.Fatalf("aux bytes: %d", got.AuxBytes())
	}
}

func TestRecordJSONRoundTrip(t *testing.T) {
	r := searchRecord()
	r.Aux = map[string][]byte{"x.bin": {1, 2, 3}}
	data, err := EncodeRecord(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRecord(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID() != r.ID() || len(got.Tables) != 1 || len(got.Aux["x.bin"]) != 3 {
		t.Fatal("round trip lost content")
	}
	if _, err := DecodeRecord([]byte("{bad")); err == nil {
		t.Fatal("garbage decoded")
	}
	if _, err := DecodeRecord([]byte(`{"inspire_id":"1","title":"t","collaboration":"c"}`)); err == nil {
		t.Fatal("invalid record decoded")
	}
}

func BenchmarkSubmitQuery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := NewArchive()
		if _, err := a.Submit(searchRecord()); err != nil {
			b.Fatal(err)
		}
		if got := a.Search("Z boson"); len(got) != 1 {
			b.Fatal("search failed")
		}
	}
}
