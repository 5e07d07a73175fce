package queryserve

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"daspos/internal/catalog"
	"daspos/internal/hepdata"
)

// countingStore counts reads through to the archive and can hold them
// open, so tests can prove what the cache absorbed.
type countingStore struct {
	inner RecordStore
	reads atomic.Int64
	gate  chan struct{} // when non-nil, every read blocks until closed
}

func (c *countingStore) Get(id string) (*hepdata.Record, error) {
	c.reads.Add(1)
	if c.gate != nil {
		<-c.gate
	}
	return c.inner.Get(id)
}

func newTestServer(t *testing.T, nrecords int) (*Server, *countingStore) {
	t.Helper()
	archive := hepdata.NewArchive()
	cat := catalog.New()
	cs := &countingStore{inner: archive}
	srv, err := NewServer(Config{Archive: archive, Catalog: cat, Store: cs})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nrecords; i++ {
		if _, err := srv.PublishRecord(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	return srv, cs
}

func doReq(t *testing.T, h http.Handler, method, target string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, target, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestRecordConditionalGet(t *testing.T) {
	srv, cs := newTestServer(t, 4)
	h := srv.Handler()

	w := doReq(t, h, "GET", "/records/ins1000002", nil)
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	etag := w.Header().Get("ETag")
	if etag == "" || !strings.HasPrefix(etag, `"`) {
		t.Fatalf("etag %q", etag)
	}
	var rec hepdata.Record
	if err := json.Unmarshal(w.Body.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.InspireID != "1000002" {
		t.Fatalf("record: %+v", rec)
	}

	// Conditional revalidation: 304, ETag echoed, zero body bytes.
	w304 := doReq(t, h, "GET", "/records/ins1000002", map[string]string{"If-None-Match": etag})
	if w304.Code != http.StatusNotModified {
		t.Fatalf("status %d", w304.Code)
	}
	if w304.Body.Len() != 0 {
		t.Fatalf("304 wrote %d body bytes", w304.Body.Len())
	}
	if w304.Header().Get("ETag") != etag {
		t.Fatal("304 lost the validator")
	}
	// A stale validator serves the full body again.
	wStale := doReq(t, h, "GET", "/records/ins1000002", map[string]string{"If-None-Match": `"stale"`})
	if wStale.Code != 200 || wStale.Body.Len() == 0 {
		t.Fatalf("stale revalidation: %d", wStale.Code)
	}
	// The two full bodies came from one store read: the second was a cache hit.
	if got := cs.reads.Load(); got != 1 {
		t.Fatalf("store reads: %d, want 1", got)
	}
	if srv.Stats().NotModified != 1 || srv.Stats().Cache.Hits < 1 {
		t.Fatalf("stats: %+v", srv.Stats())
	}

	if w := doReq(t, h, "GET", "/records/ins999", nil); w.Code != 404 {
		t.Fatalf("missing record: %d", w.Code)
	}
}

// TestStampedeSingleStoreRead is the acceptance-criteria stampede proof at
// the serving layer: N concurrent cold requests for one record perform
// exactly one store read, and every caller gets the full body.
// TestCachedRecordGetAllocs keeps the cached path allocation-light. The
// budget is the 20 allocations measured (the test's own request and
// recorder, the mux's path match, the response headers) plus 20 %; what it
// forbids is encoding the record body again on every request, or hashing
// and keying the cache through fresh copies of the id.
func TestCachedRecordGetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector; scripts/verify.sh runs this gate without it")
	}
	const budget = 24
	srv, cs := newTestServer(t, 16)
	h := srv.Handler()
	target := "/records/" + testRecord(3).ID()
	get := func() {
		if w := doReq(t, h, "GET", target, nil); w.Code != http.StatusOK {
			t.Fatalf("status %d", w.Code)
		}
	}
	get() // fill the cache
	n := testing.AllocsPerRun(200, get)
	t.Logf("cached record GET: %.0f allocations", n)
	if n > budget {
		t.Errorf("cached record GET: %.0f allocations, budget %d", n, budget)
	}
	if got := cs.reads.Load(); got != 1 {
		t.Errorf("%d store reads, want the one that filled the cache", got)
	}
}

func TestStampedeSingleStoreRead(t *testing.T) {
	srv, cs := newTestServer(t, 2)
	cs.gate = make(chan struct{})
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()

	const n = 24
	var wg sync.WaitGroup
	errs := make(chan error, n)
	bodies := make(chan int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(hts.URL + "/records/ins1000001")
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var rec hepdata.Record
			if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
				errs <- err
				return
			}
			bodies <- len(rec.Tables)
		}()
	}
	// Wait until the one fill is in flight and the rest have coalesced
	// behind it, then open the gate.
	for srv.Stats().Cache.Coalesced < n-1 {
		if cs.reads.Load() > 1 {
			t.Fatalf("multiple store reads in flight: %d", cs.reads.Load())
		}
	}
	close(cs.gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := cs.reads.Load(); got != 1 {
		t.Fatalf("stampede of %d requests performed %d store reads, want exactly 1", n, got)
	}
	for i := 0; i < n; i++ {
		if nt := <-bodies; nt != 1 {
			t.Fatalf("caller %d saw %d tables", i, nt)
		}
	}
	st := srv.Stats()
	if st.Cache.Misses != 1 || st.Cache.Coalesced != n-1 {
		t.Fatalf("cache stats: %+v", st.Cache)
	}
}

func TestSearchEndpoint(t *testing.T) {
	srv, _ := newTestServer(t, 12)
	h := srv.Handler()

	w := doReq(t, h, "GET", "/records?q=reaction:PP-->ZPRIMEX", nil)
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp searchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Total != 3 || len(resp.Results) != 3 {
		t.Fatalf("resp: %+v", resp)
	}
	if resp.Results[0].Key != "ins1000002" || resp.Results[0].ETag == "" {
		t.Fatalf("first hit: %+v", resp.Results[0])
	}
	// The page revalidates.
	etag := w.Header().Get("ETag")
	if w304 := doReq(t, h, "GET", "/records?q=reaction:PP-->ZPRIMEX", map[string]string{"If-None-Match": etag}); w304.Code != 304 || w304.Body.Len() != 0 {
		t.Fatalf("search 304: %d (%d bytes)", w304.Code, w304.Body.Len())
	}
	// Publishing a matching record changes the page ETag.
	extra := testRecord(14) // 14%4 == 2 -> ZPRIME reaction
	if _, err := srv.PublishRecord(extra); err != nil {
		t.Fatal(err)
	}
	if w2 := doReq(t, h, "GET", "/records?q=reaction:PP-->ZPRIMEX", map[string]string{"If-None-Match": etag}); w2.Code != 200 {
		t.Fatalf("stale search page served 304")
	}

	if w := doReq(t, h, "GET", "/records?q=zz&mode=bogus", nil); w.Code != 400 {
		t.Fatalf("bad mode: %d", w.Code)
	}
	if w := doReq(t, h, "GET", "/records?cursor=@@", nil); w.Code != 400 {
		t.Fatalf("bad cursor: %d", w.Code)
	}
}

func TestDatasetEndpoints(t *testing.T) {
	srv, _ := newTestServer(t, 1)
	for i := 0; i < 6; i++ {
		if _, err := srv.PublishDataset(testDataset(i)); err != nil {
			t.Fatal(err)
		}
	}
	h := srv.Handler()

	w := doReq(t, h, "GET", "/datasets?tier=AOD", nil)
	var resp searchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 { // i%3==1 -> AOD: datasets 1, 4
		t.Fatalf("AOD datasets: %+v", resp)
	}
	for _, res := range resp.Results {
		if res.Kind != "dataset" {
			t.Fatalf("kind: %+v", res)
		}
	}

	// Metadata filter.
	wm := doReq(t, h, "GET", "/datasets?meta=campaign=mc21", nil)
	var mresp searchResponse
	if err := json.Unmarshal(wm.Body.Bytes(), &mresp); err != nil {
		t.Fatal(err)
	}
	if len(mresp.Results) != 2 { // i%3==1 -> mc21: datasets 1, 4
		t.Fatalf("meta filter: %+v", mresp)
	}
}

func TestPublishEndpoints(t *testing.T) {
	srv, _ := newTestServer(t, 0)
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()

	body, err := hepdata.EncodeRecord(testRecord(0))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(hts.URL+"/records", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 201 {
		t.Fatalf("publish status: %d", resp.StatusCode)
	}
	var pub map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&pub); err != nil {
		t.Fatal(err)
	}
	if pub["key"] != "ins1000000" || pub["etag"] == "" {
		t.Fatalf("publish response: %+v", pub)
	}
	// Duplicate is a conflict.
	resp2, err := http.Post(hts.URL+"/records", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 409 {
		t.Fatalf("duplicate publish: %d", resp2.StatusCode)
	}
	// Published record is immediately searchable and fetchable.
	w := doReq(t, srv.Handler(), "GET", "/records?q=inspire:1000000", nil)
	var sr searchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Total != 1 || sr.Results[0].ETag != pub["etag"] {
		t.Fatalf("post-publish search: %+v", sr)
	}
}

// TestPublishStatusBySentinel pins 409 to the duplicate sentinels and 400
// to everything else, whatever the message says: a rejected submission
// that merely mentions "already" is the client's error, not a conflict.
func TestPublishStatusBySentinel(t *testing.T) {
	srv, _ := newTestServer(t, 1)
	h := srv.Handler()
	post := func(target string, v any) int {
		t.Helper()
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest("POST", target, strings.NewReader(string(body)))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w.Code
	}
	if code := post("/records", testRecord(0)); code != http.StatusConflict {
		t.Errorf("duplicate record: status %d, want 409", code)
	}
	ds := testDataset(1)
	if _, err := srv.PublishDataset(ds); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.PublishDataset(ds); !errors.Is(err, catalog.ErrExists) {
		t.Errorf("duplicate dataset: %v, want catalog.ErrExists", err)
	}
	// A record that reaches PublishRecord without the HTTP decoder's
	// validation in front of it is the client's error.
	bad := testRecord(7)
	bad.Title = "Cross sections already unfolded"
	bad.Tables[0].Name = "already-unfolded"
	bad.Tables[0].Points = nil
	_, err := srv.PublishRecord(bad)
	if err == nil || !strings.Contains(err.Error(), "already") {
		t.Fatalf("invalid record: error %v, want one quoting the table name", err)
	}
	if code := publishStatus(err); code != http.StatusBadRequest {
		t.Errorf("invalid record %v: status %d, want 400", err, code)
	}
	// An index that already holds the key refuses it with the duplicate
	// sentinel, for both kinds.
	etag, _ := RecordETag(testRecord(0))
	if err := srv.idx.AddRecord(testRecord(0), etag); !errors.Is(err, hepdata.ErrDuplicate) {
		t.Errorf("re-indexing a record: %v, want hepdata.ErrDuplicate", err)
	}
	stored, _ := srv.cat.Get(ds.Name)
	if err := srv.idx.AddDataset(&stored, "x"); !errors.Is(err, catalog.ErrExists) {
		t.Errorf("re-indexing a dataset: %v, want catalog.ErrExists", err)
	}
}

func TestStatusEndpoint(t *testing.T) {
	srv, _ := newTestServer(t, 3)
	h := srv.Handler()
	doReq(t, h, "GET", "/records/ins1000000", nil)
	doReq(t, h, "GET", "/records?q=boson", nil)
	w := doReq(t, h, "GET", "/status", nil)
	var st Stats
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Records != 3 || st.IndexDocs != 3 || st.Lookups != 1 || st.Searches != 1 {
		t.Fatalf("stats: %+v", st)
	}
}
