package queryserve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"

	"daspos/internal/catalog"
	"daspos/internal/daemon"
	"daspos/internal/hepdata"
)

// RecordStore is where cache misses go for record bodies. The archive
// satisfies it directly; tests and chaos drills wrap it with slow or
// counting stores to prove the cache and singleflight actually shield it.
type RecordStore interface {
	Get(id string) (*hepdata.Record, error)
}

// Config configures a Server.
type Config struct {
	// Archive is the HepData record archive (listing + default store).
	Archive *hepdata.Archive
	// Catalog is the dataset catalogue; nil serves records only.
	Catalog *catalog.Catalog
	// Store overrides where cache misses fetch record bodies; nil uses
	// Archive.
	Store RecordStore
	// CacheSize bounds the record cache in entries (0 = 4096).
	CacheSize int
}

// Listing and search pages hold defaultPage entries unless the request's
// limit asks for another size, up to maxPage.
const (
	defaultPage = 100
	maxPage     = 1000
)

// Stats is the serving tier's counter snapshot — the stage report of the
// read path.
type Stats struct {
	Records     int        `json:"records"`
	Datasets    int        `json:"datasets"`
	IndexDocs   int        `json:"index_docs"`
	IndexTerms  int        `json:"index_terms"`
	Lookups     uint64     `json:"lookups"`
	Searches    uint64     `json:"searches"`
	Pages       uint64     `json:"pages"`
	Exports     uint64     `json:"exports"`
	NotModified uint64     `json:"not_modified"`
	Published   uint64     `json:"published"`
	Cache       CacheStats `json:"cache"`
}

// Server is the read tier over the archive and catalogue: inverted-index
// search, cached conditional-GET record serving, keyset-paginated
// listings, and streamed multi-format export. Safe for concurrent use;
// publishes may interleave with serving.
type Server struct {
	archive *hepdata.Archive
	cat     *catalog.Catalog
	store   RecordStore
	idx     *Index
	cache   *Cache

	lookups     atomic.Uint64
	searches    atomic.Uint64
	pages       atomic.Uint64
	exports     atomic.Uint64
	notModified atomic.Uint64
	published   atomic.Uint64
}

// NewServer builds the serving tier, rebuilding the index deterministically
// from the stores' current contents.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Archive == nil {
		return nil, fmt.Errorf("queryserve: Config.Archive is required")
	}
	idx, err := Rebuild(cfg.Archive, cfg.Catalog)
	if err != nil {
		return nil, err
	}
	store := cfg.Store
	if store == nil {
		store = cfg.Archive
	}
	return &Server{
		archive: cfg.Archive,
		cat:     cfg.Catalog,
		store:   store,
		idx:     idx,
		cache:   NewCache(cfg.CacheSize),
	}, nil
}

// PublishRecord validates, archives, and incrementally indexes a record.
func (s *Server) PublishRecord(r *hepdata.Record) (etag string, err error) {
	etag, err = RecordETag(r)
	if err != nil {
		return "", err
	}
	if err := s.archive.Submit(r); err != nil {
		return "", err
	}
	if err := s.idx.AddRecord(r, etag); err != nil {
		return "", err
	}
	s.published.Add(1)
	return etag, nil
}

// PublishDataset registers a dataset (creating it, adding its files, and
// closing it when marked closed) and indexes it.
func (s *Server) PublishDataset(d *catalog.Dataset) (etag string, err error) {
	if s.cat == nil {
		return "", fmt.Errorf("queryserve: no catalog configured")
	}
	create := *d
	create.Files = nil
	closed := d.Closed
	create.Closed = false
	if err := s.cat.Create(create); err != nil {
		return "", err
	}
	for _, f := range d.Files {
		if err := s.cat.AddFile(d.Name, f); err != nil {
			return "", err
		}
	}
	if closed {
		if err := s.cat.Close(d.Name); err != nil {
			return "", err
		}
	}
	stored, ok := s.cat.Get(d.Name)
	if !ok {
		return "", fmt.Errorf("queryserve: dataset %q vanished after create", d.Name)
	}
	etag, err = DatasetETag(&stored)
	if err != nil {
		return "", err
	}
	if err := s.idx.AddDataset(&stored, etag); err != nil {
		return "", err
	}
	s.published.Add(1)
	return etag, nil
}

// Stats snapshots the counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Records:     s.archive.Len(),
		IndexDocs:   s.idx.Docs(),
		IndexTerms:  s.idx.Terms(),
		Lookups:     s.lookups.Load(),
		Searches:    s.searches.Load(),
		Pages:       s.pages.Load(),
		Exports:     s.exports.Load(),
		NotModified: s.notModified.Load(),
		Published:   s.published.Load(),
		Cache:       s.cache.Stats(),
	}
	if s.cat != nil {
		st.Datasets = s.cat.Len()
	}
	return st
}

// Handler returns the HTTP API:
//
//	GET  /healthz                     liveness
//	GET  /status                      counter snapshot (JSON)
//	GET  /records                     search (?q=, ?mode=and|or) or keyset
//	                                  listing (?limit=, ?cursor=)
//	GET  /records/{id}                record JSON (cached, ETag/304)
//	GET  /records/{id}/export         streamed export (?format=json|csv|yaml)
//	GET  /records/{id}/tables/{table} one table, streamed (?format=)
//	GET  /export                      bulk export of a search result set
//	GET  /datasets                    search/listing (?q=, ?tier=, ?limit=, ?cursor=)
//	GET  /datasets/{name...}          dataset JSON (ETag/304)
//	POST /records                     publish a submission
//	POST /datasets                    publish a dataset
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /status", s.handleStatus)
	mux.HandleFunc("GET /records", s.handleRecords)
	mux.HandleFunc("POST /records", s.handlePublishRecord)
	mux.HandleFunc("GET /records/{id}", s.handleRecord)
	mux.HandleFunc("GET /records/{id}/export", s.handleRecordExport)
	mux.HandleFunc("GET /records/{id}/tables/{table}", s.handleTable)
	mux.HandleFunc("GET /export", s.handleBulkExport)
	mux.HandleFunc("GET /datasets", s.handleDatasets)
	mux.HandleFunc("POST /datasets", s.handlePublishDataset)
	mux.HandleFunc("GET /datasets/{name...}", s.handleDataset)
	return mux
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	daemon.WriteJSON(w, http.StatusOK, s.Stats())
}

// pageParams reads limit and cursor.
func pageParams(qv url.Values) (limit int, cur Cursor, anchored bool, err error) {
	limit = defaultPage
	if ls := qv.Get("limit"); ls != "" {
		limit, err = strconv.Atoi(ls)
		if err != nil || limit < 1 {
			return 0, Cursor{}, false, fmt.Errorf("bad limit %q", ls)
		}
		if limit > maxPage {
			limit = maxPage
		}
	}
	if cs := qv.Get("cursor"); cs != "" {
		cur, err = DecodeCursor(cs)
		if err != nil {
			return 0, Cursor{}, false, err
		}
		anchored = true
	}
	return limit, cur, anchored, nil
}

// searchResult is one row of a search/listing response.
type searchResult struct {
	Kind  string `json:"kind"`
	Key   string `json:"key"`
	ETag  string `json:"etag"`
	Title string `json:"title,omitempty"`
	Score int32  `json:"score,omitempty"`
}

// searchResponse is the /records and /datasets page document.
type searchResponse struct {
	Results    []searchResult `json:"results"`
	NextCursor string         `json:"next_cursor,omitempty"`
	// Total is the full match count for ranked searches; listings leave it
	// zero (the walk does not know the end until it gets there).
	Total int `json:"total,omitempty"`
}

// conditional writes the page/entity response honoring If-None-Match: on a
// validator match it answers 304 with the ETag header and not a single
// body byte.
func (s *Server) conditional(w http.ResponseWriter, r *http.Request, etag, contentType string, body func() error) {
	w.Header().Set("ETag", etag)
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		s.notModified.Add(1)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", contentType)
	if err := body(); err != nil {
		// Headers are gone; all we can do is abort the stream so the client
		// sees a truncated response instead of a clean EOF.
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler)
	}
}

// handleRecords serves ranked search (?q=) and the keyset listing walk.
func (s *Server) handleRecords(w http.ResponseWriter, r *http.Request) {
	qv := r.URL.Query()
	s.serveIndex(w, r, KindRecord, qv, qv.Get("q"))
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	if s.cat == nil {
		daemon.Error(w, http.StatusNotFound, "no dataset catalog configured")
		return
	}
	// Tier/metadata filters compile to index terms, so a filtered listing
	// is just a field search.
	qv := r.URL.Query()
	q := qv.Get("q")
	if tier := qv.Get("tier"); tier != "" {
		q += " tier:" + tier
	}
	for _, m := range qv["meta"] {
		q += " meta:" + m
	}
	s.serveIndex(w, r, KindDataset, qv, strings.TrimSpace(q))
}

// serveIndex is the shared search/listing path for one document kind: qv
// is the request's query string, parsed once, and q the query text (which
// /datasets extends with its filters).
func (s *Server) serveIndex(w http.ResponseWriter, r *http.Request, kind DocKind, qv url.Values, q string) {
	limit, cur, anchored, err := pageParams(qv)
	if err != nil {
		daemon.Error(w, http.StatusBadRequest, err.Error())
		return
	}
	mode, err := ParseMode(qv.Get("mode"))
	if err != nil {
		daemon.Error(w, http.StatusBadRequest, err.Error())
		return
	}
	var resp searchResponse
	if terms := ParseQuery(q); len(terms) > 0 {
		s.searches.Add(1)
		page, total, more := s.idx.SearchPage(terms, mode, int(kind), cur, anchored, limit)
		resp.Total = total
		resp.Results = make([]searchResult, 0, len(page)) // never nil: an empty page is [], not null
		for _, h := range page {
			resp.Results = append(resp.Results, searchResult{
				Kind: h.Kind.String(), Key: h.Key, ETag: h.ETag, Title: h.Title, Score: h.Score,
			})
		}
		if more {
			last := page[len(page)-1]
			resp.NextCursor = Cursor{Score: last.Score, Key: last.Key}.Encode()
		}
	} else {
		s.pages.Add(1)
		var keys []string
		if kind == KindRecord {
			keys = s.archive.IDsAfter(cur.Key, limit)
		} else {
			keys = s.cat.NamesAfter(cur.Key, limit)
		}
		resp.Results = make([]searchResult, 0, len(keys))
		// A key the stores list but the index has not caught up on yet
		// gets the zero Doc: no validator, no title.
		for i, d := range s.idx.LookupMany(keys) {
			resp.Results = append(resp.Results, searchResult{Kind: kind.String(), Key: keys[i], ETag: d.ETag, Title: d.Title})
		}
		if len(keys) == limit {
			resp.NextCursor = Cursor{Key: keys[len(keys)-1]}.Encode()
		}
	}
	// The page ETag digests the result identities (key + content etag), so
	// it revalidates exactly when the page's contents are unchanged.
	parts := []string{q, strconv.Itoa(int(mode)), kind.String(), strconv.Itoa(limit), cur.Key, strconv.Itoa(int(cur.Score)), resp.NextCursor}
	for _, res := range resp.Results {
		parts = append(parts, res.Key, res.ETag)
	}
	etag := DerivedETag("page", parts...)
	s.conditional(w, r, etag, "application/json", func() error {
		return json.NewEncoder(w).Encode(resp)
	})
}

// recordEntry loads a record body through the cache; one miss fills every
// concurrent waiter.
func (s *Server) recordEntry(id string) (Entry, error) {
	ent, _, err := s.cache.Get(id, func() (Entry, error) {
		rec, err := s.store.Get(id)
		if err != nil {
			return Entry{}, err
		}
		var ent Entry
		err = withCanonical(rec, func(canonical []byte) {
			// The cached body is an exact-size copy: the scratch buffer
			// goes back to the pool, and no entry pins spare capacity.
			ent.Body = make([]byte, len(canonical)+1)
			copy(ent.Body, canonical)
			ent.Body[len(canonical)] = '\n'
			ent.ETag = digestETag(canonical)
		})
		return ent, err
	})
	return ent, err
}

func statusForStoreErr(err error) int {
	if errors.Is(err, hepdata.ErrNoRecord) {
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
}

func (s *Server) handleRecord(w http.ResponseWriter, r *http.Request) {
	s.lookups.Add(1)
	id := r.PathValue("id")
	ent, err := s.recordEntry(id)
	if err != nil {
		daemon.Error(w, statusForStoreErr(err), err.Error())
		return
	}
	s.conditional(w, r, ent.ETag, "application/json", func() error {
		_, werr := w.Write(ent.Body)
		return werr
	})
}

func (s *Server) handleRecordExport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	format, err := ParseFormat(r.URL.Query().Get("format"))
	if err != nil {
		daemon.Error(w, http.StatusBadRequest, err.Error())
		return
	}
	// The export validator derives from the indexed content digest, so a
	// revalidation answers 304 without touching the store at all.
	doc, ok := s.idx.Lookup(id)
	if !ok || doc.Kind != KindRecord {
		daemon.Error(w, http.StatusNotFound, fmt.Sprintf("%v: %s", hepdata.ErrNoRecord, id))
		return
	}
	s.exports.Add(1)
	etag := DerivedETag(doc.ETag, "export", string(format))
	s.conditional(w, r, etag, format.ContentType(), func() error {
		rec, err := s.store.Get(id)
		if err != nil {
			return err
		}
		return StreamRecord(w, rec, format)
	})
}

func (s *Server) handleTable(w http.ResponseWriter, r *http.Request) {
	id, table := r.PathValue("id"), r.PathValue("table")
	format, err := ParseFormat(r.URL.Query().Get("format"))
	if err != nil {
		daemon.Error(w, http.StatusBadRequest, err.Error())
		return
	}
	doc, ok := s.idx.Lookup(id)
	if !ok || doc.Kind != KindRecord {
		daemon.Error(w, http.StatusNotFound, fmt.Sprintf("%v: %s", hepdata.ErrNoRecord, id))
		return
	}
	rec, err := s.store.Get(id)
	if err != nil {
		daemon.Error(w, statusForStoreErr(err), err.Error())
		return
	}
	var tab *hepdata.Table
	for i := range rec.Tables {
		if rec.Tables[i].Name == table {
			tab = &rec.Tables[i]
			break
		}
	}
	if tab == nil {
		daemon.Error(w, http.StatusNotFound, fmt.Sprintf("record %s has no table %q", id, table))
		return
	}
	s.exports.Add(1)
	etag := DerivedETag(doc.ETag, "table", table, string(format))
	s.conditional(w, r, etag, format.ContentType(), func() error {
		return StreamTable(w, rec, tab, format)
	})
}

func (s *Server) handleBulkExport(w http.ResponseWriter, r *http.Request) {
	qv := r.URL.Query()
	q := qv.Get("q")
	terms := ParseQuery(q)
	if len(terms) == 0 {
		daemon.Error(w, http.StatusBadRequest, "bulk export needs a query (?q=)")
		return
	}
	mode, err := ParseMode(qv.Get("mode"))
	if err != nil {
		daemon.Error(w, http.StatusBadRequest, err.Error())
		return
	}
	format, err := ParseFormat(qv.Get("format"))
	if err != nil {
		daemon.Error(w, http.StatusBadRequest, err.Error())
		return
	}
	s.exports.Add(1)
	hits, _, _ := s.idx.SearchPage(terms, mode, int(KindRecord), Cursor{}, false, 0)
	keys := make([]string, len(hits))
	parts := []string{q, strconv.Itoa(int(mode)), string(format)}
	for i, h := range hits {
		keys[i] = h.Key
		parts = append(parts, h.Key, h.ETag)
	}
	etag := DerivedETag("bulk", parts...)
	s.conditional(w, r, etag, format.ContentType(), func() error {
		// Records stream one at a time from the store; only the key list —
		// not the record set — is ever resident.
		return StreamRecords(w, keys, s.store.Get, format)
	})
}

func (s *Server) handleDataset(w http.ResponseWriter, r *http.Request) {
	s.lookups.Add(1)
	if s.cat == nil {
		daemon.Error(w, http.StatusNotFound, "no dataset catalog configured")
		return
	}
	name := "/" + r.PathValue("name")
	d, ok := s.cat.Get(name)
	if !ok {
		daemon.Error(w, http.StatusNotFound, fmt.Sprintf("%v: %s", catalog.ErrNoDataset, name))
		return
	}
	etag, err := DatasetETag(&d)
	if err != nil {
		daemon.Error(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.conditional(w, r, etag, "application/json", func() error {
		return json.NewEncoder(w).Encode(&d)
	})
}

func (s *Server) handlePublishRecord(w http.ResponseWriter, r *http.Request) {
	data, err := readBody(w, r, 8<<20)
	if err != nil {
		daemon.Error(w, http.StatusBadRequest, err.Error())
		return
	}
	rec, err := hepdata.DecodeRecord(data)
	if err != nil {
		daemon.Error(w, http.StatusBadRequest, err.Error())
		return
	}
	etag, err := s.PublishRecord(rec)
	if err != nil {
		daemon.Error(w, publishStatus(err), err.Error())
		return
	}
	daemon.WriteJSON(w, http.StatusCreated, map[string]string{"key": rec.ID(), "etag": etag})
}

func (s *Server) handlePublishDataset(w http.ResponseWriter, r *http.Request) {
	if s.cat == nil {
		daemon.Error(w, http.StatusNotFound, "no dataset catalog configured")
		return
	}
	data, err := readBody(w, r, 8<<20)
	if err != nil {
		daemon.Error(w, http.StatusBadRequest, err.Error())
		return
	}
	var d catalog.Dataset
	if err := json.Unmarshal(data, &d); err != nil {
		daemon.Error(w, http.StatusBadRequest, "malformed dataset: "+err.Error())
		return
	}
	etag, err := s.PublishDataset(&d)
	if err != nil {
		daemon.Error(w, publishStatus(err), err.Error())
		return
	}
	daemon.WriteJSON(w, http.StatusCreated, map[string]string{"key": d.Name, "etag": etag})
}

func publishStatus(err error) int {
	if errors.Is(err, hepdata.ErrDuplicate) || errors.Is(err, catalog.ErrExists) {
		return http.StatusConflict
	}
	return http.StatusBadRequest
}

func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	// MaxBytesReader (not a bare LimitReader) closes the connection on an
	// oversized body, so a client cannot stream an unbounded payload.
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		return nil, fmt.Errorf("reading body: %w", err)
	}
	return data, nil
}
