package queryserve

import (
	"runtime/debug"
	"testing"

	"daspos/internal/catalog"
	"daspos/internal/hepdata"
)

// TestPublishAllocs pins what a publish allocates: a benchShapedRecord
// published into a warm server — its ETag, the archive's key (which the
// index's doc shares), its packed copy in one buffer, the doc's title, and
// a key and a posting list for each term the index has never seen. The
// budget is the count measured; what it forbids is a string, a map or a
// sort per term again, with which a publish made 96, a pack that grows its
// buffers, with which it made 25, or a second key and an ETag rendered in
// two steps, with which it made 10. The collector is off while it counts,
// so a cycle that empties the encoder's buffer pool adds no refill.
func TestPublishAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates; scripts/verify.sh runs this gate without it")
	}
	const warm, runs, budget = 2000, 1000, 8
	srv := serveRecords(t, warm, false, benchShapedRecord)
	// AllocsPerRun calls the function once more than runs, to warm it.
	recs := make([]*hepdata.Record, runs+1)
	for i := range recs {
		recs[i] = benchShapedRecord(warm + i)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	next := 0
	n := testing.AllocsPerRun(runs, func() {
		if _, err := srv.PublishRecord(recs[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	t.Logf("publish into a warm server: %.0f allocations per record", n)
	if n > budget {
		t.Errorf("publish into a warm server: %.0f allocations per record, budget %d", n, budget)
	}
}

// BenchmarkPublishRecord publishes the query benchmark's corpus — 20,000
// benchShapedRecords — into a fresh server per iteration, as
// `daspos-query serve` and the benchmark's set-up do.
func BenchmarkPublishRecord(b *testing.B) {
	const records = 20000
	recs := make([]*hepdata.Record, records)
	for i := range recs {
		recs[i] = benchShapedRecord(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv, err := NewServer(Config{Archive: hepdata.NewArchive(), Catalog: catalog.New()})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range recs {
			if _, err := srv.PublishRecord(r); err != nil {
				b.Fatal(err)
			}
		}
	}
}
