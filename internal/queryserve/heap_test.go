package queryserve

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"daspos/internal/catalog"
	"daspos/internal/hepdata"
)

// benchShapedRecord has the query benchmark's corpus shape: two tables of
// eight points, one error component each, one reaction and one
// observable per table.
func benchShapedRecord(i int) *hepdata.Record {
	r := &hepdata.Record{
		InspireID:     fmt.Sprintf("%07d", 1500000+i),
		Title:         fmt.Sprintf("Measurement %d of boson production", i),
		Collaboration: "ATLAS",
		Year:          2008 + i%12,
		Abstract:      "Differential cross sections from the preserved chain.",
	}
	for t := 0; t < 2; t++ {
		tab := hepdata.Table{
			Name:        fmt.Sprintf("Table%d", t+1),
			XHeader:     "PT [GEV]",
			YHeader:     "DSIG/DPT [PB/GEV]",
			Reactions:   []string{"P P --> Z0 X"},
			Observables: []string{"DSIG/DPT"},
		}
		for p := 0; p < 8; p++ {
			lo := float64(p * 10)
			y := float64(100+i%50) / (1 + lo/25)
			tab.Points = append(tab.Points, hepdata.Point{
				XLo: lo, X: lo + 5, XHi: lo + 10, Y: y,
				Errors: []hepdata.Uncertainty{{Label: "stat", Plus: y * 0.03, Minus: y * 0.03}},
			})
		}
		r.Tables = append(r.Tables, tab)
	}
	return r
}

// retained reports the heap objects and bytes each of n records keeps
// alive in the server serve builds: the live heap after serve, less the
// live heap before it, per record.
func retained(n int, serve func() *Server) (objects, bytes float64) {
	live := func() (uint64, uint64) {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapObjects, ms.HeapAlloc
	}
	objs, size := live()
	srv := serve()
	objs2, size2 := live()
	runtime.KeepAlive(srv)
	return (float64(objs2) - float64(objs)) / float64(n), (float64(size2) - float64(size)) / float64(n)
}

// serveRecords returns a server holding records(i) for i < n: published
// one by one into a running server, or archived first and indexed by
// NewServer's rebuild, as a server over a restored archive starts.
func serveRecords(t *testing.T, n int, rebuilt bool, record func(int) *hepdata.Record) *Server {
	archive := hepdata.NewArchive()
	if rebuilt {
		for i := 0; i < n; i++ {
			if _, err := archive.Submit(record(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	srv, err := NewServer(Config{Archive: archive, Catalog: catalog.New()})
	if err != nil {
		t.Fatal(err)
	}
	if !rebuilt {
		for i := 0; i < n; i++ {
			if _, err := srv.PublishRecord(record(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return srv
}

// TestPublishedRecordHeapObjects bounds the heap objects a record keeps
// alive in the serving tier — archive, index and all — whether it was
// published into a running server or indexed by NewServer's rebuild. The
// garbage collector traces every one of them on every cycle, for as long
// as the server runs, so a record must not retain a tree of them.
func TestPublishedRecordHeapObjects(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates; scripts/verify.sh runs this gate without it")
	}
	const records, budget = 2000, 11
	for _, rebuilt := range []bool{false, true} {
		perRecord, _ := retained(records, func() *Server { return serveRecords(t, records, rebuilt, benchShapedRecord) })
		t.Logf("rebuilt %v: %.1f heap objects retained per record", rebuilt, perRecord)
		if perRecord > budget {
			t.Errorf("rebuilt %v: %.1f heap objects retained per record, budget %d", rebuilt, perRecord, budget)
		}
	}
}

// TestRebuiltIndexKeepsNoRecordText: the index must not keep a record's
// text alive. Each record here carries a 16 KiB abstract that yields no
// index term, which the archive's packed copy holds once; a doc title that
// shared the text of the record the rebuild decoded would hold it twice.
func TestRebuiltIndexKeepsNoRecordText(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates; scripts/verify.sh runs this gate without it")
	}
	const records, abstract = 200, 16 << 10
	record := func(i int) *hepdata.Record {
		r := benchShapedRecord(i)
		r.Abstract = strings.Repeat("-", abstract)
		return r
	}
	_, perRecord := retained(records, func() *Server { return serveRecords(t, records, true, record) })
	t.Logf("%.0f heap bytes retained per record with a %d-byte abstract", perRecord, abstract)
	if perRecord > abstract*3/2 {
		t.Errorf("%.0f heap bytes retained per record with a %d-byte abstract: the text is held twice", perRecord, abstract)
	}
}
