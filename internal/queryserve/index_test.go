package queryserve

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"daspos/internal/catalog"
	"daspos/internal/hepdata"
	"daspos/internal/xrand"
)

// testRecord builds a deterministic record; i varies the discovery
// surface so records are distinguishable by search.
func testRecord(i int) *hepdata.Record {
	reactions := []string{"P P --> Z0 X", "P P --> W+ X", "P P --> ZPRIME X", "P P --> H0 X"}
	observables := []string{"DSIG/DPT", "SIG", "EFF", "DSIG/DM"}
	collabs := []string{"DASPOS-GPD", "ATLAS", "CMS"}
	return &hepdata.Record{
		InspireID:     fmt.Sprintf("%07d", 1000000+i),
		Title:         fmt.Sprintf("Measurement %d of boson production", i),
		Collaboration: collabs[i%len(collabs)],
		Year:          2010 + i%10,
		Abstract:      "Differential cross sections at the LHC.",
		Tables: []hepdata.Table{{
			Name:        "Table1",
			XHeader:     "PT [GEV]",
			YHeader:     "DSIG/DPT [PB/GEV]",
			Reactions:   []string{reactions[i%len(reactions)]},
			Observables: []string{observables[i%len(observables)]},
			Points: []hepdata.Point{
				{X: 5, XLo: 0, XHi: 10, Y: 12.5, Errors: []hepdata.Uncertainty{{Label: "stat", Plus: 0.4, Minus: 0.4}}},
				{X: 15, XLo: 10, XHi: 20, Y: 3.25},
			},
		}},
	}
}

func testDataset(i int) *catalog.Dataset {
	tiers := []string{"RAW", "AOD", "SKIM"}
	return &catalog.Dataset{
		Name:              fmt.Sprintf("/mc/sample%02d/%s/v%d", i, tiers[i%3], 1+i%4),
		Tier:              tiers[i%3],
		ProcessingVersion: fmt.Sprintf("v%d", 1+i%4),
		Metadata:          map[string]string{"campaign": fmt.Sprintf("mc%d", 20+i%3)},
	}
}

func TestTokenize(t *testing.T) {
	got := Tokenize("Measurement of the Z-boson PT at 7 TeV (2013)!")
	want := []string{"measurement", "of", "the", "boson", "pt", "at", "tev", "2013"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tokens %v want %v", got, want)
	}
	if toks := Tokenize(""); len(toks) != 0 {
		t.Fatalf("empty input tokenized to %v", toks)
	}
}

func TestParseQuery(t *testing.T) {
	terms := ParseQuery("reaction:PP-->Z0X boson obs:SIG meta:campaign=mc23 tier:AOD")
	want := []string{"meta:campaign=mc23", "obs:sig", "reaction:pp-->z0x", "t:boson", "tier:aod"}
	if !reflect.DeepEqual(terms, want) {
		t.Fatalf("terms %v want %v", terms, want)
	}
	if got := ParseQuery(""); len(got) != 0 {
		t.Fatalf("empty query parsed to %v", got)
	}
}

// searchAll is the whole ranked result through the serving path: one
// unbounded page from the top.
func searchAll(x *Index, terms []string, mode Mode, kind int) []Hit {
	hits, _, _ := x.SearchPage(terms, mode, kind, Cursor{}, false, 0)
	return hits
}

func TestSearchAndOr(t *testing.T) {
	x := NewIndex()
	for i := 0; i < 12; i++ {
		r := testRecord(i)
		etag, err := RecordETag(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := x.AddRecord(r, etag); err != nil {
			t.Fatal(err)
		}
	}
	// reaction cycles with period 4: records 2, 6, 10 carry ZPRIME.
	hits := searchAll(x, ParseQuery("reaction:PP-->ZPRIMEX"), And, -1)
	if len(hits) != 3 {
		t.Fatalf("zprime hits: %d", len(hits))
	}
	for i, want := range []string{"ins1000002", "ins1000006", "ins1000010"} {
		if hits[i].Key != want {
			t.Fatalf("hit %d = %s want %s (order must be deterministic)", i, hits[i].Key, want)
		}
	}
	// AND with a term nothing matches is empty.
	if got := searchAll(x, ParseQuery("reaction:PP-->ZPRIMEX warpdrive"), And, -1); len(got) != 0 {
		t.Fatalf("impossible AND matched %d", len(got))
	}
	// OR unions and ranks multi-term matches above single-term ones:
	// record 2 matches both the reaction field term and the year.
	or := searchAll(x, ParseQuery("reaction:PP-->ZPRIMEX year:2012"), Or, -1)
	if len(or) != 3 {
		t.Fatalf("or hits: %d", len(or))
	}
	if or[0].Key != "ins1000002" || or[0].Score <= or[1].Score {
		t.Fatalf("ranking: %+v", or)
	}
}

// TestIndexedSearchSublinear holds the reason the index exists, against the
// linear scan it replaced on the serving path (hepdata.Archive.Search). The
// probe matches the same ten records at every corpus size, so the indexed
// cost is bounded by matches and the scan's by the corpus: growing the
// corpus 4× must grow indexed search time by well under 4×, and the index
// must beat the scan outright at the large size.
func TestIndexedSearchSublinear(t *testing.T) {
	const small, grow = 500, 4
	// fastest is the best of several timed rounds: the floor is what the
	// code costs, the rest is what else the machine was doing.
	fastest := func(iters int, search func() int) time.Duration {
		best := time.Duration(1<<63 - 1)
		for round := 0; round < 7; round++ {
			t0 := time.Now()
			for i := 0; i < iters; i++ {
				if n := search(); n != 10 {
					t.Fatalf("probe matched %d records, want 10", n)
				}
			}
			best = min(best, time.Since(t0))
		}
		return best / time.Duration(iters)
	}
	measure := func(n int) (indexed, linear time.Duration) {
		archive, idx := hepdata.NewArchive(), NewIndex()
		for i := 0; i < n; i++ {
			r := testRecord(i)
			if i < 10 {
				r.Title += " golden calibration sample"
			}
			if err := archive.Submit(r); err != nil {
				t.Fatal(err)
			}
			etag, err := RecordETag(r)
			if err != nil {
				t.Fatal(err)
			}
			if err := idx.AddRecord(r, etag); err != nil {
				t.Fatal(err)
			}
		}
		terms := ParseQuery("golden calibration")
		indexed = fastest(1000, func() int {
			_, total, _ := idx.SearchPage(terms, And, -1, Cursor{}, false, 50)
			return total
		})
		linear = fastest(10, func() int { return len(archive.Search("golden")) })
		return indexed, linear
	}
	idxSmall, linSmall := measure(small)
	idxBig, linBig := measure(small * grow)
	idxRatio := float64(idxBig) / float64(idxSmall)
	t.Logf("indexed %v → %v (%.2fx), linear %v → %v (%.2fx) over a %dx corpus",
		idxSmall, idxBig, idxRatio, linSmall, linBig, float64(linBig)/float64(linSmall), grow)
	if idxRatio >= grow/1.5 {
		t.Errorf("indexed search grew %.2fx over a %dx corpus — not sublinear", idxRatio, grow)
	}
	if idxBig >= linBig {
		t.Errorf("indexed search (%v) does not beat the linear scan (%v) at %d records", idxBig, linBig, small*grow)
	}
}

// TestSearchPageCostBoundedByPage is the machine-independent gate the
// timing test above cannot be: its probe matches ten documents, so it never
// sees what a search costs per *match*. Here the same 50-row page is cut
// from a 500-hit and a 20,000-hit result — first page and mid-walk, one
// term and an intersection — and the allocations and bytes allocated must
// be flat (±10 %): candidates stay doc ids, and only the page becomes Hits.
// Or-mode is not held to this; its score map still grows with the result.
func TestSearchPageCostBoundedByPage(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector; scripts/verify.sh runs this gate without it")
	}
	const small, big, page = 500, 20000, 50
	x := NewIndex()
	for i := 0; i < big; i++ {
		terms := []string{"t:all", "year:2012"}
		if i%(big/small) == 0 {
			terms = append(terms, "t:few", "obs:sig")
		}
		// Keys run against publish order, so every later match displaces
		// a kept position: the heap's worst case, not its best.
		if err := x.add(Doc{Kind: KindRecord, Key: fmt.Sprintf("ins%07d", big-i), ETag: `"e"`, Title: "Measurement"}, terms); err != nil {
			t.Fatal(err)
		}
	}
	cost := func(terms []string, wantTotal int, cur Cursor, anchored bool) (allocs, bytes float64) {
		t.Helper()
		search := func() {
			hits, total, more := x.SearchPage(terms, And, int(KindRecord), cur, anchored, page)
			if len(hits) != page || total != wantTotal || !more {
				t.Fatalf("%v: %d rows of %d, more %v; want %d of %d", terms, len(hits), total, more, page, wantTotal)
			}
		}
		const runs = 50
		allocs = testing.AllocsPerRun(runs, search)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			search()
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	mid := Cursor{Score: 1, Key: fmt.Sprintf("ins%07d", big/2)}
	for _, c := range []struct {
		name       string
		few, many  []string
		cur        Cursor
		anchored   bool
		fewN, manN int
	}{
		{"first page, one term", []string{"t:few"}, []string{"t:all"}, Cursor{}, false, small, big},
		{"mid-walk, one term", []string{"t:few"}, []string{"t:all"}, mid, true, small, big},
		{"first page, intersection", []string{"obs:sig", "t:few"}, []string{"t:all", "year:2012"}, Cursor{}, false, small, big},
	} {
		fewAllocs, fewBytes := cost(c.few, c.fewN, c.cur, c.anchored)
		manyAllocs, manyBytes := cost(c.many, c.manN, c.cur, c.anchored)
		t.Logf("%s: %d hits %.0f allocs %.0f B; %d hits %.0f allocs %.0f B", c.name, c.fewN, fewAllocs, fewBytes, c.manN, manyAllocs, manyBytes)
		if manyAllocs > fewAllocs*1.1 || manyBytes > fewBytes*1.1 {
			t.Errorf("%s: a %d-row page costs %.0f allocs / %.0f B from %d hits but %.0f / %.0f from %d — cost follows the result set, not the page",
				c.name, page, fewAllocs, fewBytes, c.fewN, manyAllocs, manyBytes, c.manN)
		}
	}
}

func TestSearchKindFilter(t *testing.T) {
	x := NewIndex()
	r := testRecord(0)
	etag, _ := RecordETag(r)
	if err := x.AddRecord(r, etag); err != nil {
		t.Fatal(err)
	}
	d := testDataset(0)
	de, _ := DatasetETag(d)
	if err := x.AddDataset(d, de); err != nil {
		t.Fatal(err)
	}
	// "mc" appears only in the dataset path; kind filters partition.
	if got := searchAll(x, ParseQuery("tier:RAW"), And, int(KindRecord)); len(got) != 0 {
		t.Fatalf("record-kind search matched dataset: %+v", got)
	}
	if got := searchAll(x, ParseQuery("tier:RAW"), And, int(KindDataset)); len(got) != 1 {
		t.Fatalf("dataset search: %+v", got)
	}
	if _, ok := x.Lookup("ins1000000"); !ok {
		t.Fatal("lookup missed")
	}
	if err := x.AddRecord(r, etag); err == nil {
		t.Fatal("duplicate index add accepted")
	}
}

// TestRebuildDeterministic pins the index rebuild contract: two rebuilds
// from the same stores dump byte-identically, and an index grown publish
// by publish in arbitrary order answers every query the same way.
func TestRebuildDeterministic(t *testing.T) {
	archive := hepdata.NewArchive()
	cat := catalog.New()
	var queries [][]string
	for i := 0; i < 20; i++ {
		if err := archive.Submit(testRecord(i)); err != nil {
			t.Fatal(err)
		}
		d := testDataset(i)
		if err := cat.Create(*d); err != nil {
			t.Fatal(err)
		}
		queries = append(queries,
			ParseQuery("inspire:"+testRecord(i).InspireID),
			ParseQuery("tier:"+d.Tier),
			ParseQuery("boson measurement"),
		)
	}
	x1, err := Rebuild(archive, cat)
	if err != nil {
		t.Fatal(err)
	}
	x2, err := Rebuild(archive, cat)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(x1.docs, x2.docs) || !reflect.DeepEqual(x1.postings, x2.postings) {
		t.Fatal("two rebuilds built different doc tables or posting lists")
	}

	// Incremental build in shuffled publish order.
	inc := NewIndex()
	order := xrand.New(7).Perm(20)
	for _, i := range order {
		r := testRecord(i)
		etag, _ := RecordETag(r)
		if err := inc.AddRecord(r, etag); err != nil {
			t.Fatal(err)
		}
		d := testDataset(i)
		de, _ := DatasetETag(d)
		if err := inc.AddDataset(d, de); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range queries {
		for _, mode := range []Mode{And, Or} {
			a := searchAll(x1, q, mode, -1)
			b := searchAll(inc, q, mode, -1)
			if len(a) != len(b) {
				t.Fatalf("query %v mode %d: rebuild %d hits, incremental %d", q, mode, len(a), len(b))
			}
			for i := range a {
				if a[i].Key != b[i].Key || a[i].Score != b[i].Score || a[i].ETag != b[i].ETag {
					t.Fatalf("query %v hit %d: rebuild %+v incremental %+v", q, i, a[i], b[i])
				}
			}
		}
	}
}

func TestCursorRoundTrip(t *testing.T) {
	for _, c := range []Cursor{{}, {Score: 7, Key: "ins123"}, {Score: -1, Key: "/mc/a/AOD/v1"}} {
		got, err := DecodeCursor(c.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if got != c {
			t.Fatalf("round trip %+v -> %+v", c, got)
		}
	}
	if _, err := DecodeCursor("!!not-base64!!"); err == nil {
		t.Fatal("garbage cursor decoded")
	}
	if _, err := DecodeCursor("djk"); err == nil { // valid base64, wrong layout
		t.Fatal("malformed cursor decoded")
	}
	// Cursor ordering: after means strictly later in (score desc, key asc).
	c := Cursor{Score: 5, Key: "m"}
	if c.After(5, "m") || c.After(5, "a") || c.After(6, "z") {
		t.Fatal("After admitted non-later positions")
	}
	if !c.After(5, "n") || !c.After(4, "a") {
		t.Fatal("After rejected later positions")
	}
}

func TestETagStability(t *testing.T) {
	r := testRecord(3)
	e1, err := RecordETag(r)
	if err != nil {
		t.Fatal(err)
	}
	e2, _ := RecordETag(testRecord(3))
	if e1 != e2 {
		t.Fatal("identical content produced different ETags")
	}
	if !strings.HasPrefix(e1, `"`) || !strings.HasSuffix(e1, `"`) {
		t.Fatalf("ETag not quoted: %s", e1)
	}
	mut := testRecord(3)
	mut.Title += "!"
	e3, _ := RecordETag(mut)
	if e3 == e1 {
		t.Fatal("content change kept the ETag")
	}
	if DerivedETag(e1, "export", "csv") == DerivedETag(e1, "export", "json") {
		t.Fatal("derivation params did not split the ETag")
	}
	if !etagMatches(e1, e1) || !etagMatches("*", e1) || !etagMatches(`W/`+e1+`, "zz"`, e1) {
		t.Fatal("etagMatches rejected a valid validator")
	}
	if etagMatches(`"other"`, e1) || etagMatches("", e1) {
		t.Fatal("etagMatches accepted a stale validator")
	}
}
