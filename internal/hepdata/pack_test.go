package hepdata

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// edgeRecords are the hand-made shapes the packed form must carry bit for
// bit: −0, subnormals and both exponent forms, strings of invalid UTF-8
// and escapes, a description, points with and without errors, and aux
// values that are nil (encoded null) beside ones that are empty ("").
func edgeRecords() []*Record {
	negZero := math.Copysign(0, -1)
	var out []*Record
	for i, s := range awkwardStrings {
		r := &Record{
			InspireID: "9" + s, Title: "t" + s, Collaboration: "c" + s, Year: -i, Abstract: s,
			Aux: map[string][]byte{s: []byte(s), s + "nil": nil, s + "empty": {}},
		}
		tab := Table{Name: "T" + s, Description: s, XHeader: s, YHeader: s, Reactions: []string{s, "P P --> Z0 X"}, Observables: []string{s}}
		for _, f := range awkwardFloats {
			tab.Points = append(tab.Points, Point{X: f, XLo: f, XHi: f, Y: -f,
				Errors: []Uncertainty{{Label: s, Plus: math.Abs(f), Minus: negZero}, {}}})
		}
		tab.Points = append(tab.Points, Point{X: negZero, XLo: -1e21, XHi: 1e-7, Y: 5e-324, Errors: []Uncertainty{}})
		r.Tables = []Table{tab, {Name: "second", Reactions: []string{}, Points: []Point{{Y: 1e21}}}}
		out = append(out, r)
	}
	return append(out, &Record{InspireID: "1", Title: "t", Collaboration: "c", Year: math.MinInt,
		Tables: []Table{{Name: "T", Points: []Point{{}}}}, Aux: map[string][]byte{}})
}

// goldenRecords decodes every committed canonical body.
func goldenRecords(tb testing.TB) []*Record {
	tb.Helper()
	paths, err := filepath.Glob("testdata/canonical/*.json")
	if err != nil {
		tb.Fatal(err)
	}
	var out []*Record
	for _, path := range paths {
		out = append(out, goldenRecord(tb, strings.TrimSuffix(filepath.Base(path), ".json")))
	}
	return out
}

// checkRoundTrip submits r to a fresh archive and demands Get hands back a
// record whose canonical bytes are r's.
func checkRoundTrip(t *testing.T, r *Record) {
	t.Helper()
	want, err := AppendRecord(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	a := NewArchive()
	if _, err := a.Submit(r); err != nil {
		t.Fatal(err)
	}
	got, err := a.Get(r.ID())
	if err != nil {
		t.Fatal(err)
	}
	enc, err := AppendRecord(nil, got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, want) {
		t.Fatalf("%s: archived record encodes differently:\n got %q\nwant %q", r.ID(), enc, want)
	}
}

func TestArchiveRoundTripIsExact(t *testing.T) {
	records := goldenRecords(t)
	if len(records) < 6 {
		t.Fatalf("found %d golden records, want at least 6", len(records))
	}
	for _, r := range append(records, edgeRecords()...) {
		checkRoundTrip(t, r)
	}
}

// TestGetReturnsACopy: a record Get returns is the caller's. Writing to
// any part of it, replacing and appending to aux values included, must
// not reach the next Get. Only the bytes of an aux value are shared.
func TestGetReturnsACopy(t *testing.T) {
	a := NewArchive()
	orig := goldenRecord(t, "aux")
	if _, err := a.Submit(orig); err != nil {
		t.Fatal(err)
	}
	want, err := AppendRecord(nil, orig)
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.Get(orig.ID())
	if err != nil {
		t.Fatal(err)
	}
	got.Title = "mutated"
	got.Tables[0].Name = "mutated"
	got.Tables[0].Points[0].Y = -1
	got.Tables[0].Points = append(got.Tables[0].Points, Point{})
	for k, v := range got.Aux {
		got.Aux[k] = append(v, 'x')
	}
	got.Aux["new"] = []byte("x")
	again, err := a.Get(orig.ID())
	if err != nil {
		t.Fatal(err)
	}
	if enc, err := AppendRecord(nil, again); err != nil || !bytes.Equal(enc, want) {
		t.Fatalf("a mutated Get result reached the archive (err %v):\n got %s\nwant %s", err, enc, want)
	}
}

// TestReadsDoNotCopyAux: a read costs the same whatever payloads a record
// carries. Get, a Search that hits and a Search that misses must not
// allocate anything near the 1 MiB of aux each archived record holds.
func TestReadsDoNotCopyAux(t *testing.T) {
	const records, aux, budget = 4, 1 << 20, 64 << 10
	a := NewArchive()
	for i := 0; i < records; i++ {
		r := searchRecord()
		r.InspireID = strconv.Itoa(1400000 + i)
		r.Aux = map[string][]byte{"likelihood/workspace.json": make([]byte, aux)}
		if _, err := a.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name string
		read func() int
	}{
		{"Get", func() int {
			r, err := a.Get("ins1400000")
			if err != nil {
				t.Fatal(err)
			}
			return r.AuxBytes()
		}},
		{"Search hit", func() int { return len(a.Search("Z boson")) }},
		{"Search miss", func() int { return len(a.Search("warp drive")) }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 10
		for i := 0; i < runs; i++ {
			c.read()
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > budget {
			t.Errorf("%s allocates %d bytes over records holding %d bytes of aux each, budget %d", c.name, per, aux, budget)
		}
	}
}

// TestSearchMatchesDecodedRecords: Search, which matches the packed text
// in place, finds exactly the records the match over decoded records
// finds, for queries in any case and strings of invalid UTF-8.
func TestSearchMatchesDecodedRecords(t *testing.T) {
	a := NewArchive()
	var records []*Record
	for _, r := range append(goldenRecords(t), edgeRecords()...) {
		if _, err := a.Submit(r); errors.Is(err, ErrDuplicate) {
			continue
		} else if err != nil {
			t.Fatal(err)
		}
		records = append(records, r)
	}
	sort.Slice(records, func(i, j int) bool { return records[i].ID() < records[j].ID() })
	reference := func(query string) []string {
		q := strings.ToLower(query)
		var ids []string
		for _, r := range records {
			hay := strings.ToLower(r.Title + " " + r.Collaboration + " " + r.Abstract)
			for _, t := range r.Tables {
				hay += " " + strings.ToLower(strings.Join(t.Reactions, " "))
				hay += " " + strings.ToLower(strings.Join(t.Observables, " "))
			}
			if q == "" || strings.Contains(hay, q) {
				ids = append(ids, r.ID())
			}
		}
		return ids
	}
	queries := []string{"", " ", "Z", "P P --> z0", "z0 x \xff", "\ufffd", "\xc3", "\xc3\xa9", "\xc3\x89", "T\xff", "warp drive"}
	for _, s := range awkwardStrings {
		queries = append(queries, s, strings.ToUpper(s), s+" ")
	}
	for _, q := range queries {
		var got []string
		for _, r := range a.Search(q) {
			got = append(got, r.ID())
		}
		if want := reference(q); strings.Join(got, "|") != strings.Join(want, "|") {
			t.Errorf("Search(%q) = %q, want %q", q, got, want)
		}
	}
}

// TestGetSlicesDoNotOverlap: a decoded record's tables, points, error
// components and lists share one backing array of each, so every one is
// capped at its own length; appending to one must not write into the next.
func TestGetSlicesDoNotOverlap(t *testing.T) {
	a := NewArchive()
	r := edgeRecords()[1]
	if _, err := a.Submit(r); err != nil {
		t.Fatal(err)
	}
	got, err := a.Get(r.ID())
	if err != nil {
		t.Fatal(err)
	}
	want, err := AppendRecord(nil, got)
	if err != nil {
		t.Fatal(err)
	}
	tab := &got.Tables[0]
	np, nr, ne := len(tab.Points), len(tab.Reactions), len(tab.Points[0].Errors)
	_ = append(got.Tables, Table{Name: "appended"})
	_ = append(tab.Points, Point{Y: 99})
	_ = append(tab.Reactions, "appended")
	_ = append(tab.Observables, "appended")
	_ = append(tab.Points[0].Errors, Uncertainty{Label: "appended"})
	if len(tab.Points) != np || len(tab.Reactions) != nr || len(tab.Points[0].Errors) != ne {
		t.Fatal("append changed a length in place")
	}
	if enc, err := AppendRecord(nil, got); err != nil || !bytes.Equal(enc, want) {
		t.Fatalf("appending to one slice wrote into its neighbour (err %v):\n got %q\nwant %q", err, enc, want)
	}
}

// TestGetAllocsIndependentOfPoints: decoding allocates per record, not per
// point, error component or string.
func TestGetAllocsIndependentOfPoints(t *testing.T) {
	a := NewArchive()
	allocs := func(id string, points int) float64 {
		tab := Table{Name: "T", Reactions: []string{"P P --> Z0 X"}, Observables: []string{"SIG"}}
		for i := 0; i < points; i++ {
			tab.Points = append(tab.Points, Point{X: float64(i), XHi: float64(i + 1), Y: 1,
				Errors: []Uncertainty{{Label: "stat", Plus: 0.1, Minus: 0.1}, {Label: "sys", Plus: 0.2, Minus: 0.1}}})
		}
		second := tab
		second.Name = "U"
		r := &Record{InspireID: id, Title: "t", Collaboration: "c", Tables: []Table{tab, second}}
		if _, err := a.Submit(r); err != nil {
			t.Fatal(err)
		}
		key := r.ID()
		return testing.AllocsPerRun(50, func() {
			if _, err := a.Get(key); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs("1", 2), allocs("2", 400)
	t.Logf("Get allocations: %.0f at 4 points, %.0f at 800", small, large)
	if large != small {
		t.Errorf("Get allocates %.0f times at 800 points, %.0f at 4: want the same", large, small)
	}
}

// auxRecord is a golden record carrying nine aux values, nil and empty
// among them, whose lengths straddle one and two multiples of auxAlign: a
// different order of the values moves the padding between them.
func auxRecord(tb testing.TB) *Record {
	r := goldenRecord(tb, "typical")
	r.Aux = map[string][]byte{"nil": nil, "empty": {}}
	for i, n := range []int{1, auxAlign - 1, auxAlign, auxAlign + 1, 2*auxAlign - 1, 2 * auxAlign, 200} {
		r.Aux["value/"+strconv.Itoa(i)] = bytes.Repeat([]byte{byte('a' + i)}, n)
	}
	return r
}

// TestPackIsDeterministic: the packed form of a record is a function of
// the record alone, not of the order in which its aux map is iterated.
func TestPackIsDeterministic(t *testing.T) {
	r := auxRecord(t)
	want := pack(r)
	for i := 0; i < 100; i++ {
		if got := pack(r); !bytes.Equal(got, want) {
			t.Fatalf("pack %d of the same record differs from the first (%d bytes against %d)", i+1, len(got), len(want))
		}
	}
	checkRoundTrip(t, r)
}

// TestPackAllocs: a record without aux packs into one allocation, its
// result, whatever its tables hold.
func TestPackAllocs(t *testing.T) {
	for _, name := range []string{"minimal", "typical", "floats", "corpus"} {
		r := goldenRecord(t, name)
		var packed []byte
		if n := testing.AllocsPerRun(100, func() { packed = pack(r) }); n != 1 {
			t.Errorf("%s: pack allocates %.0f times, want 1", name, n)
		}
		if len(packed) != cap(packed) {
			t.Errorf("%s: packed form holds %d bytes in a buffer of %d", name, len(packed), cap(packed))
		}
	}
}

// FuzzArchiveRoundTrip: any record DecodeRecord accepts goes through
// Submit and Get and comes back with identical canonical bytes.
func FuzzArchiveRoundTrip(f *testing.F) {
	paths, err := filepath.Glob("testdata/canonical/*.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	aux, err := AppendRecord(nil, auxRecord(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(aux)
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeRecord(data)
		if err != nil {
			return
		}
		checkRoundTrip(t, r)
	})
}
