package queryserve

import (
	"encoding/base64"
	"errors"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"daspos/internal/catalog"
	"daspos/internal/hepdata"
	"daspos/internal/xrand"
)

// FuzzIndexSearchRoundTrip publishes a record built from fuzzed strings
// and checks the index round-trip invariant: every term the indexer
// derived from the record finds it again, in both AND and OR mode, and
// the hit carries the publish-time ETag.
func FuzzIndexSearchRoundTrip(f *testing.F) {
	f.Add("1234567", "Search for exotic resonances", "ATLAS", "P P --> ZPRIME X", "DSIG/DPT", 2015)
	f.Add("1", "", "", "", "", 0)
	f.Add("9999999", "Ünïcode & symbols: ++--", "DASPOS-GPD", "E+ E- --> HADRONS", "SIG", 1999)
	f.Add("42", strings.Repeat("boson ", 50), "CMS", "", "", 2030)
	f.Fuzz(func(t *testing.T, inspire, title, collab, reaction, obs string, year int) {
		if inspire == "" || strings.ContainsAny(inspire, " \x00") {
			t.Skip()
		}
		rec := &hepdata.Record{
			InspireID:     inspire,
			Title:         title,
			Collaboration: collab,
			Year:          year,
			Tables: []hepdata.Table{{
				Name:   "T1",
				Points: []hepdata.Point{{X: 1, Y: 2}},
			}},
		}
		if reaction != "" {
			rec.Tables[0].Reactions = []string{reaction}
		}
		if obs != "" {
			rec.Tables[0].Observables = []string{obs}
		}
		etag, err := RecordETag(rec)
		if err != nil {
			t.Skip() // records json.Marshal rejects aren't indexable
		}
		x := NewIndex()
		if err := x.AddRecord(rec, rec.ID(), etag); err != nil {
			t.Fatalf("AddRecord: %v", err)
		}
		key := "ins" + inspire
		doc, ok := x.Lookup(key)
		if !ok {
			t.Fatalf("published record %q not in index", key)
		}
		if doc.ETag != etag {
			t.Fatalf("index ETag %q != publish ETag %q", doc.ETag, etag)
		}
		for _, term := range recordTerms(rec) {
			for _, mode := range []Mode{And, Or} {
				hits, total, more := x.SearchPage([]string{term}, mode, int(KindRecord), Cursor{}, false, 1)
				if total != 1 || more {
					t.Fatalf("term %q: total %d more %v, want the one record (mode %d)", term, total, more, mode)
				}
				if ref := x.Search([]string{term}, mode, -1); !reflect.DeepEqual(hits, ref) {
					t.Fatalf("term %q: page %+v, reference %+v (mode %d)", term, hits, ref, mode)
				}
				found := false
				for _, h := range hits {
					if h.Key == key {
						if h.ETag != etag {
							t.Fatalf("term %q: hit ETag mismatch", term)
						}
						found = true
					}
				}
				if !found {
					t.Fatalf("term %q derived from record but search missed it (mode %d)", term, mode)
				}
			}
		}
		// A term the record cannot contain never matches it alone.
		if hits, total, _ := x.SearchPage([]string{"t:zzzznothere"}, And, -1, Cursor{}, false, 1); len(hits) != 0 || total != 0 {
			t.Fatalf("phantom term matched: %+v (total %d)", hits, total)
		}
		// Nothing sorts after the record's own position.
		at := Cursor{Score: termWeight("inspire:"), Key: key}
		if hits, total, more := x.SearchPage([]string{"inspire:" + strings.ToLower(inspire)}, And, -1, at, true, 5); len(hits) != 0 || total != 1 || more {
			t.Fatalf("page after the only hit: %+v total %d more %v", hits, total, more)
		}
	})
}

// FuzzSearchPageMatchesReference holds the page-bounded search to the
// search it replaced (reference_test.go). A seed grows a corpus of records
// and datasets, published in an order unrelated to their keys, whose terms
// come from a vocabulary small enough that scores collide. Keys run 1–20
// bytes over an alphabet with a zero byte in it, and half of them start
// from one 16-byte stem, so the key column's prefixes tie, pad with zeros
// and compare against real zero bytes. A query of one to four of those
// terms (or one nothing carries) then walks every page in both modes under
// every kind filter at the fuzzed limit, and each page's rows, total and
// next cursor must be exactly what Search + pageHits answer from the same
// cursor.
func FuzzSearchPageMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(40), uint16(0x0123), uint8(7))
	f.Add(uint64(2), uint8(200), uint16(0xffff), uint8(255))
	f.Add(uint64(3), uint8(255), uint16(0x00f0), uint8(1))
	f.Add(uint64(4), uint8(0), uint16(0x0001), uint8(3))
	f.Add(uint64(5), uint8(90), uint16(0x7a5c), uint8(50))
	f.Add(uint64(6), uint8(17), uint16(0x8000), uint8(17))
	f.Fuzz(func(t *testing.T, seed uint64, docs uint8, pick uint16, limit uint8) {
		if limit == 0 {
			t.Skip("SearchPage takes limit ≥ 1")
		}
		vocab := []string{"t:aa", "t:bb", "t:cc", "t:dd", "tier:raw", "year:2012", "obs:sig", "t:rare"}
		const stem = "ab/\x00ab/\x00ab/\x00ab/\x00"
		rng := xrand.New(seed)
		x := NewIndex()
		for i := 0; i < int(docs); i++ {
			key := make([]byte, 1+rng.Intn(20))
			for k := range key {
				key[k] = "ab/\x00"[rng.Intn(4)]
			}
			if rng.Bool(0.5) {
				copy(key, stem)
			}
			doc := Doc{Kind: DocKind(rng.Intn(2)), Key: string(key), ETag: strconv.Itoa(i)}
			var terms []string
			for _, term := range vocab {
				if rng.Bool(0.45) {
					terms = append(terms, term)
				}
			}
			if err := x.add(doc, terms); err != nil && !errors.Is(err, hepdata.ErrDuplicate) && !errors.Is(err, catalog.ErrExists) {
				t.Fatal(err)
			}
		}
		// Each nibble of pick names a term; 8-15 repeat the vocabulary, so
		// a query may name a term twice, and 0xf swaps in one nothing has.
		var query []string
		for ; pick != 0; pick >>= 4 {
			if pick&0xf == 0xf {
				query = append(query, "t:absent")
			} else {
				query = append(query, vocab[pick&7])
			}
		}
		query = sortedUnique(query)
		for _, mode := range []Mode{And, Or} {
			for kind := -1; kind <= int(KindDataset); kind++ {
				ref := x.Search(query, mode, kind)
				cur, anchored := Cursor{}, false
				for pages := 0; ; pages++ {
					want, wantNext := pageHits(ref, cur, int(limit), anchored)
					got, total, more := x.SearchPage(query, mode, kind, cur, anchored, int(limit))
					if total != len(ref) {
						t.Fatalf("query %v mode %d kind %d: total %d, reference %d", query, mode, kind, total, len(ref))
					}
					if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
						t.Fatalf("query %v mode %d kind %d limit %d after %+v:\n got %+v\nwant %+v", query, mode, kind, limit, cur, got, want)
					}
					next := ""
					if more {
						last := got[len(got)-1]
						next = Cursor{Score: last.Score, Key: last.Key}.Encode()
					}
					if next != wantNext {
						t.Fatalf("query %v mode %d kind %d limit %d after %+v: next cursor %q, reference %q", query, mode, kind, limit, cur, next, wantNext)
					}
					if next == "" {
						break
					}
					if pages > len(ref) {
						t.Fatalf("walk did not end after %d pages over %d hits", pages, len(ref))
					}
					var err error
					if cur, err = DecodeCursor(next); err != nil {
						t.Fatal(err)
					}
					anchored = true
				}
				// A cursor no page handed out — between positions, before
				// the first, after the last — cuts the list the same way.
				free := []Cursor{
					{Score: int32(rng.Intn(12)), Key: "a" + string(rune('a'+rng.Intn(3)))},
					{Score: int32(rng.Intn(12)), Key: stem[:rng.Intn(len(stem)+1)] + "\x00"[:rng.Intn(2)]},
					{Score: 1 << 20}, {Score: -1},
				}
				for _, cur := range free {
					want, _ := pageHits(ref, cur, int(limit), true)
					got, _, _ := x.SearchPage(query, mode, kind, cur, true, int(limit))
					if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
						t.Fatalf("query %v mode %d kind %d limit %d after free cursor %+v:\n got %+v\nwant %+v", query, mode, kind, limit, cur, got, want)
					}
				}
			}
		}
	})
}

// FuzzDecodeCursor drives the one decoder of the read tier that takes bytes
// straight off a URL. Whatever arrives, it must not panic and must not
// allocate beyond a small multiple of the input; and a cursor it accepts is
// exactly one this server could have issued — it re-encodes to the bytes it
// was decoded from — so two spellings of one anchor can never be cached or
// validated as two pages.
func FuzzDecodeCursor(f *testing.F) {
	valid := Cursor{Score: 7, Key: "ins1200001"}.Encode()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])                                                            // truncated
	f.Add(Cursor{Score: -1, Key: strings.Repeat("/mc/a/AOD/v1", 400)}.Encode())            // over-long
	f.Add(base64.RawURLEncoding.EncodeToString([]byte("v1\x0099999999999999999999\x00k"))) // score overflows int32
	f.Add(base64.RawURLEncoding.EncodeToString([]byte("v1\x00+007\x00k")))                 // a second spelling of 7
	f.Add(valid[:4] + "\n" + valid[4:])                                                    // base64 skips newlines
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, err := DecodeCursor(s)
		runtime.ReadMemStats(&after)
		// TotalAlloc counts the whole process, the fuzz worker's own
		// goroutines included: the slack is theirs, the slope the decoder's.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+16*uint64(len(s)) {
			t.Fatalf("decoding %d bytes allocated %d", len(s), grew)
		}
		if err != nil {
			return
		}
		if s == "" {
			if c != (Cursor{}) {
				t.Fatalf("empty cursor decoded to %+v", c)
			}
			return
		}
		if got := c.Encode(); got != s {
			t.Fatalf("accepted %.80q, which re-encodes to %.80q", s, got)
		}
	})
}
