// Package queryserve is the read tier of the archive: the serving layer
// HEPData-style traffic lands on. It holds an inverted index with sorted
// posting lists over HepData records and catalogue datasets (search by
// reaction, observable, INSPIRE id, keyword, tier, version, metadata), a
// sharded LRU cache with singleflight request coalescing in front of the
// record store, and an HTTP API with conditional GETs (ETags derived from
// content digests), streamed multi-format export, and keyset pagination
// whose cursors stay stable under concurrent publishes.
package queryserve

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"daspos/internal/catalog"
	"daspos/internal/hepdata"
)

// DocKind distinguishes the two document classes the index serves.
type DocKind uint8

// The document kinds.
const (
	KindRecord DocKind = iota
	KindDataset
)

// String renders the kind for listings and cursors.
func (k DocKind) String() string {
	if k == KindDataset {
		return "dataset"
	}
	return "record"
}

// Doc is one indexed document: a HepData record or a catalogue dataset.
// The index stores only the discovery surface — key, content ETag, and a
// display title — never the body; bodies come from the record store
// through the cache.
type Doc struct {
	Kind  DocKind `json:"kind"`
	Key   string  `json:"key"`
	ETag  string  `json:"etag"`
	Title string  `json:"title,omitempty"`
}

// Hit is one ranked search result.
type Hit struct {
	Doc
	// Score ranks the hit: the sum of rarity weights of the query terms it
	// matched. Ties order by key, so a result page is total-ordered and a
	// cursor anchored on (score, key) is unambiguous.
	Score int32
}

// Mode selects the query combinator.
type Mode uint8

// The query modes: And requires every term, Or any.
const (
	And Mode = iota
	Or
)

// ParseMode reads a query-string mode value; empty defaults to And.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(s) {
	case "", "and":
		return And, nil
	case "or":
		return Or, nil
	}
	return And, fmt.Errorf("queryserve: unknown mode %q (want and|or)", s)
}

// Index is the inverted index: for every term, the sorted list of internal
// doc ids that contain it. It is safe for concurrent use; searches run
// under a shared lock while publishes append. Doc ids are assigned in
// publish order, so posting lists stay sorted by construction — appending
// a new document only ever appends to lists.
//
// postings maps a term to the position of its list in lists, one slice of
// every posting list in the order their terms first appeared; a list is
// its backing array and nothing more. A publish builds each of its terms
// in term, scratch the index owns and uses only under the write lock, and
// looks the term up from there: only a term the index has never seen
// allocates, for its key.
//
// Beside docs, two pointer-free columns indexed by doc id hold what ranking
// reads of every match — its kind and the first keyPrefixLen bytes of its
// key — so a search touches a Doc only for the hits it returns.
type Index struct {
	mu       sync.RWMutex
	docs     []Doc
	kinds    []DocKind
	prefixes []keyPrefix
	byKey    map[string]int32
	postings map[string]int32
	lists    [][]int32
	term     []byte
}

// keyPrefixLen bytes of a key, zero-padded and read big-endian, make a
// keyPrefix; it holds every "ins" + 7-digit record key whole.
const keyPrefixLen = 16

// keyPrefix orders keys as strings.Compare does wherever two prefixes
// differ: a shorter key pads with zero bytes, which sort before any byte
// a longer key could have there. Equal prefixes say nothing — "ab" and
// "ab\x00" share one — and the full keys decide.
type keyPrefix struct{ hi, lo uint64 }

func prefixOf(key string) keyPrefix {
	var b [keyPrefixLen]byte
	copy(b[:], key)
	return keyPrefix{binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])}
}

func (p keyPrefix) compare(q keyPrefix) int {
	if p.hi != q.hi {
		return cmp.Compare(p.hi, q.hi)
	}
	return cmp.Compare(p.lo, q.lo)
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{
		byKey:    make(map[string]int32),
		postings: make(map[string]int32),
	}
}

// list returns the posting list of a term, nil for a term no doc holds.
func (x *Index) list(term string) []int32 {
	if at, ok := x.postings[term]; ok {
		return x.lists[at]
	}
	return nil
}

// Docs returns the number of indexed documents.
func (x *Index) Docs() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return len(x.docs)
}

// Terms returns the number of distinct terms.
func (x *Index) Terms() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return len(x.postings)
}

// Tokenize lowercases the text and splits it into alphanumeric runs,
// dropping single-character fragments. It defines the tokens of both
// indexing and query parsing, so a term always round-trips: anything
// Tokenize emits for published text, a query containing the same text
// searches for. The indexer splits ASCII text in place to the same tokens
// (postText).
func Tokenize(s string) []string {
	var out []string
	start := -1
	lower := strings.ToLower(s)
	for i, r := range lower {
		alnum := (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9')
		if alnum && start < 0 {
			start = i
		}
		if !alnum && start >= 0 {
			if i-start > 1 {
				out = append(out, lower[start:i])
			}
			start = -1
		}
	}
	if start >= 0 && len(lower)-start > 1 {
		out = append(out, lower[start:])
	}
	return out
}

// canon collapses a field value to its exact-match form: lowercased with
// all whitespace removed, so "P P --> Z0 X" and "p p-->z0 x" name the same
// reaction term.
func canon(s string) string {
	return strings.Join(strings.Fields(strings.ToLower(s)), "")
}

// AddRecord indexes a record under its key, r.ID(), and its content
// ETag. The record must not already be indexed. The key is passed in so
// the doc keeps the string the archive keys the record by: the one
// Archive.Submit returns, or a key from Archive.IDs. The doc keeps its
// own copy of the title: a record the archive decoded holds all its
// strings in one, and a title sharing it would keep the record's whole
// text alive beside the packed copy.
//
// Field terms carry a namespace prefix ("reaction:", "obs:", "inspire:",
// "collab:", "year:"); free text from the title, abstract, collaboration,
// table names, and reaction strings lands as bare tokens under "t:".
func (x *Index) AddRecord(r *hepdata.Record, key, etag string) error {
	doc := Doc{Kind: KindRecord, Key: key, ETag: etag, Title: strings.Clone(r.Title)}
	x.mu.Lock()
	defer x.mu.Unlock()
	id, err := x.insert(doc)
	if err != nil {
		return err
	}
	x.postField(id, "inspire:", r.InspireID, appendLower)
	x.postField(id, "collab:", r.Collaboration, appendCanon)
	if r.Year != 0 {
		x.term = strconv.AppendInt(append(x.term[:0], "year:"...), int64(r.Year), 10)
		x.post(id)
	}
	x.postText(id, r.Title)
	x.postText(id, r.Abstract)
	x.postText(id, r.Collaboration)
	for i := range r.Tables {
		t := &r.Tables[i]
		x.postText(id, t.Name)
		for _, re := range t.Reactions {
			x.postField(id, "reaction:", re, appendCanon)
			x.postText(id, re)
		}
		for _, ob := range t.Observables {
			x.postField(id, "obs:", ob, appendCanon)
			x.postText(id, ob)
		}
	}
	return nil
}

// AddDataset indexes a dataset under its content ETag. Its terms are the
// tier, processing version, conditions tag, parent, metadata key/value
// pairs, and the path segments of the dataset name as free tokens.
func (x *Index) AddDataset(d *catalog.Dataset, etag string) error {
	doc := Doc{Kind: KindDataset, Key: d.Name, ETag: etag, Title: d.Tier + " " + d.ProcessingVersion}
	x.mu.Lock()
	defer x.mu.Unlock()
	id, err := x.insert(doc)
	if err != nil {
		return err
	}
	x.postField(id, "tier:", d.Tier, appendCanon)
	if d.ProcessingVersion != "" {
		x.postField(id, "version:", d.ProcessingVersion, appendCanon)
	}
	if d.ConditionsTag != "" {
		x.postField(id, "conditions:", d.ConditionsTag, appendCanon)
	}
	if d.Parent != "" {
		x.postField(id, "parent:", d.Parent, appendLower)
	}
	for k, v := range d.Metadata {
		x.term = appendCanon(append(appendCanon(append(x.term[:0], "meta:"...), k), '='), v)
		x.post(id)
	}
	x.postText(id, d.Name)
	return nil
}

// insert gives doc the next id and fills its row of the doc table and the
// columns. The caller holds the write lock and posts the doc's terms next.
func (x *Index) insert(doc Doc) (int32, error) {
	if _, dup := x.byKey[doc.Key]; dup {
		exists := hepdata.ErrDuplicate
		if doc.Kind == KindDataset {
			exists = catalog.ErrExists
		}
		return 0, fmt.Errorf("queryserve: indexing %s %q: %w", doc.Kind, doc.Key, exists)
	}
	id := int32(len(x.docs))
	x.docs = append(x.docs, doc)
	x.kinds = append(x.kinds, doc.Kind)
	x.prefixes = append(x.prefixes, prefixOf(doc.Key))
	x.byKey[doc.Key] = id
	return id, nil
}

// post appends id to the posting list of the term in x.term. A term the
// index holds is found without a copy; only a new one allocates, for its
// key. A term a document yields twice is posted once: ids only grow, so
// its list already ends in id.
func (x *Index) post(id int32) {
	at, ok := x.postings[string(x.term)]
	if !ok {
		at = int32(len(x.lists))
		x.postings[string(x.term)] = at
		x.lists = append(x.lists, nil)
	}
	if l := x.lists[at]; len(l) == 0 || l[len(l)-1] != id {
		x.lists[at] = append(l, id)
	}
}

// postField posts the field term prefix + fold(s).
func (x *Index) postField(id int32, prefix, s string, fold func([]byte, string) []byte) {
	x.term = fold(append(x.term[:0], prefix...), s)
	x.post(id)
}

// postText posts "t:" + each token Tokenize yields for s. ASCII text is
// split and lowercased in place; other text goes through Tokenize itself,
// whose lowercasing can turn a non-ASCII rune into ASCII letters.
func (x *Index) postText(id int32, s string) {
	if !isASCII(s) {
		for _, tok := range Tokenize(s) {
			x.term = append(append(x.term[:0], "t:"...), tok...)
			x.post(id)
		}
		return
	}
	start := 0
	for i := 0; i <= len(s); i++ {
		if i < len(s) && isAlnumASCII(s[i]) {
			continue
		}
		if i-start > 1 {
			x.term = appendLower(append(x.term[:0], "t:"...), s[start:i])
			x.post(id)
		}
		start = i + 1
	}
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// isAlnumASCII reports whether an ASCII byte lowercases to a letter or is
// a digit: what Tokenize keeps.
func isAlnumASCII(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9'
}

// appendLower appends strings.ToLower(s) to dst, in place when s is ASCII.
func appendLower(dst []byte, s string) []byte {
	n := len(dst)
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf {
			return append(dst[:n], strings.ToLower(s)...)
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

// appendCanon appends canon(s) to dst, in place when s is ASCII: there
// strings.Fields splits only at tab, newline, VT, FF, CR and space.
func appendCanon(dst []byte, s string) []byte {
	n := len(dst)
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= utf8.RuneSelf:
			return append(dst[:n], canon(s)...)
		case c == ' ' || '\t' <= c && c <= '\r':
		case 'A' <= c && c <= 'Z':
			dst = append(dst, c+'a'-'A')
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// ParseQuery splits a query string into index terms. Whitespace-separated
// words that carry a field prefix ("reaction:p p-->z0 x" must be
// URL-encoded into one word; "tier:AOD", "meta:campaign=mc23") are kept as
// canonical field terms; everything else is tokenized into bare "t:"
// tokens. An empty result means "match nothing" for search — listings go
// through the keyset walk instead.
func ParseQuery(q string) []string {
	var terms []string
	for _, w := range strings.Fields(q) {
		if at := strings.IndexByte(w, ':'); at > 0 {
			if t, ok := fieldTerm(strings.ToLower(w[:at]), w[at+1:]); ok {
				terms = append(terms, t)
				continue
			}
		}
		for _, tok := range Tokenize(w) {
			terms = append(terms, "t:"+tok)
		}
	}
	return sortedUnique(terms)
}

// fieldTerm is the index term a value of an indexed field searches for,
// canonicalised as the indexer writes it; ok is false for any other field.
func fieldTerm(field, val string) (term string, ok bool) {
	switch field {
	case "inspire", "parent":
		return field + ":" + strings.ToLower(val), true
	case "reaction", "obs", "collab", "tier", "version", "conditions", "year":
		return field + ":" + canon(val), true
	case "meta":
		k, v, _ := strings.Cut(val, "=")
		return "meta:" + canon(k) + "=" + canon(v), true
	}
	return "", false
}

// sortedUnique sorts terms and drops repeats, so a term named twice is
// scored once.
func sortedUnique(terms []string) []string {
	sort.Strings(terms)
	out := terms[:0]
	for i, v := range terms {
		if i == 0 || v != terms[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// termWeight scores a matched term. Field terms (an exact reaction, an
// INSPIRE id, a tier) outrank free-text tokens. The weight depends only on
// the term itself — never on corpus statistics like document frequency —
// so a document's score for a fixed query is immutable once published,
// which is what keeps ranked-search pagination cursors stable while
// publishes land between pages.
func termWeight(t string) int32 {
	if strings.HasPrefix(t, "t:") {
		return 1
	}
	return 4
}

// SearchPage runs the parsed terms through the index and returns one page
// of the ranked result: the up-to-limit hits that follow the cursor
// (anchored false starts at the top), the full match count, and whether
// hits remain after the page. limit must be at least 1; the HTTP handlers
// clamp it to [1, maxPage]. And intersects the posting lists, seeking each
// id of the shortest in the others; Or merges them in id order, summing
// each id's matched weight once. The order is (score desc, key asc) —
// total, so cursors are unambiguous. kind restricts results to one
// document class; pass a negative value for both.
//
// The cost is the candidates' ids and the page: a match is a (doc id,
// score) pair that is counted, kind-filtered and offered to a heap of the
// limit best positions after the cursor in the one pass that finds it, and
// only the winners become Hits. Filtering and ranking read the kind and
// key-prefix columns; a Doc is read only on a prefix tie and for the
// winners. The heap compares immutable (score, key) positions — termWeight
// knows no corpus statistics — so a publish between two pages can add
// positions but never reorder the ones a cursor names.
func (x *Index) SearchPage(terms []string, mode Mode, kind int, cur Cursor, anchored bool, limit int) (page []Hit, total int, more bool) {
	if len(terms) == 0 {
		return nil, 0, false
	}
	x.mu.RLock()
	defer x.mu.RUnlock()
	sel := selector{x: x, kind: kind, cur: cur, curPrefix: prefixOf(cur.Key), anchored: anchored, limit: limit, top: make([]candidate, 0, limit)}
	lists := make([]posting, 0, len(terms))
	var score int32
	for _, t := range terms {
		p := x.list(t)
		if len(p) == 0 {
			if mode == And {
				return nil, 0, false // one empty list empties the intersection
			}
			continue
		}
		w := termWeight(t)
		score += w
		lists = append(lists, posting{ids: p, w: w})
	}
	if mode == And {
		slices.SortFunc(lists, func(a, b posting) int { return len(a.ids) - len(b.ids) })
		intersect(lists, &sel, score)
	} else {
		union(lists, &sel)
	}
	slices.SortFunc(sel.top, sel.compare)
	page = make([]Hit, len(sel.top))
	for i, c := range sel.top {
		page[i] = Hit{Doc: x.docs[c.id], Score: c.score}
	}
	return page, sel.total, sel.after > len(sel.top)
}

// candidate is one match before it is worth a Hit: its position is its
// score and its key's prefix, read once from the column.
type candidate struct {
	id     int32
	score  int32
	prefix keyPrefix
}

// selector keeps the best limit candidates after the cursor. Until it has
// limit of them top is a plain list; from then on it is a binary heap with
// the worst kept position at the root, so a candidate costs one comparison
// to reject and O(log limit) to admit.
type selector struct {
	x         *Index
	kind      int
	cur       Cursor
	curPrefix keyPrefix
	anchored  bool
	limit     int

	top   []candidate
	total int // matches of the right kind
	after int // of those, positions after the cursor
}

// compare orders candidates by result position: score desc, key asc.
func (s *selector) compare(a, b candidate) int {
	if a.score != b.score {
		return cmp.Compare(b.score, a.score)
	}
	if c := a.prefix.compare(b.prefix); c != 0 {
		return c
	}
	return strings.Compare(s.x.docs[a.id].Key, s.x.docs[b.id].Key)
}

// afterCursor is Cursor.After read from the key column: the doc's key is
// fetched only when its prefix ties the cursor's.
func (s *selector) afterCursor(c candidate) bool {
	if c.score != s.cur.Score {
		return c.score < s.cur.Score
	}
	if o := c.prefix.compare(s.curPrefix); o != 0 {
		return o > 0
	}
	return s.cur.After(c.score, s.x.docs[c.id].Key)
}

func (s *selector) offer(id, score int32) {
	if s.kind >= 0 && s.x.kinds[id] != DocKind(s.kind) {
		return
	}
	s.total++
	c := candidate{id: id, score: score, prefix: s.x.prefixes[id]}
	if s.anchored && !s.afterCursor(c) {
		return
	}
	s.after++
	if len(s.top) < s.limit {
		s.top = append(s.top, c)
		if len(s.top) == s.limit {
			for i := len(s.top)/2 - 1; i >= 0; i-- {
				s.sift(i)
			}
		}
		return
	}
	if s.compare(c, s.top[0]) < 0 {
		s.top[0] = c
		s.sift(0)
	}
}

// sift restores the heap below i: a parent never ranks before its children.
func (s *selector) sift(i int) {
	for {
		worst := i
		for child := 2*i + 1; child <= 2*i+2 && child < len(s.top); child++ {
			if s.compare(s.top[child], s.top[worst]) > 0 {
				worst = child
			}
		}
		if worst == i {
			return
		}
		s.top[i], s.top[worst] = s.top[worst], s.top[i]
		i = worst
	}
}

// posting is one term's sorted doc ids, its weight, and how far a merge
// has advanced through them.
type posting struct {
	ids []int32
	lo  int
	w   int32
}

// head is the id a merge reads next.
func (p *posting) head() int32 { return p.ids[p.lo] }

// intersect offers the intersection of sorted posting lists to sel at
// score, in id order: every id of the shortest list (lists[0]) is sought
// in each of the others by galloping from where the last one was found —
// sublinear in the long lists, which is where a big corpus spends its
// time — and nothing is copied.
func intersect(lists []posting, sel *selector, score int32) {
next:
	for _, id := range lists[0].ids {
		for k := 1; k < len(lists); k++ {
			l := &lists[k]
			l.lo = gallop(l.ids, l.lo, id)
			if l.lo >= len(l.ids) {
				return
			}
			if l.ids[l.lo] != id {
				continue next
			}
		}
		sel.offer(id, score)
	}
}

// gallop returns the first index from lo on whose id is at least id: it
// tries 1, 2, 4, … places on until it passes id, then binary-searches the
// last gap, so a seek costs the log of how far it moves.
func gallop(ids []int32, lo int, id int32) int {
	if lo >= len(ids) || ids[lo] >= id {
		return lo
	}
	// ids[lo] < id throughout; hi is the first place tried that is not.
	hi, step := lo+1, 1
	for hi < len(ids) && ids[hi] < id {
		lo = hi
		step <<= 1
		hi = lo + step
	}
	hi = min(hi, len(ids))
	for lo++; lo < hi; {
		m := int(uint(lo+hi) >> 1)
		if ids[m] < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// union offers the union of non-empty sorted posting lists to sel in id
// order, each id once with the summed weight of the lists that hold it. A
// min-heap of the lists ordered by head id is the merge; it lives in
// lists, so nothing grows with the result.
func union(lists []posting, sel *selector) {
	for i := len(lists)/2 - 1; i >= 0; i-- {
		siftHead(lists, i)
	}
	for len(lists) > 0 {
		id, score := lists[0].head(), int32(0)
		for len(lists) > 0 && lists[0].head() == id {
			score += lists[0].w
			if lists[0].lo++; lists[0].lo == len(lists[0].ids) {
				lists[0] = lists[len(lists)-1]
				lists = lists[:len(lists)-1]
			}
			siftHead(lists, 0)
		}
		sel.offer(id, score)
	}
}

// siftHead restores the merge heap below i: no list's head id is below its
// parent's.
func siftHead(h []posting, i int) {
	for {
		least := i
		for child := 2*i + 1; child <= 2*i+2 && child < len(h); child++ {
			if h[child].head() < h[least].head() {
				least = child
			}
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// Lookup returns the indexed doc for a key.
func (x *Index) Lookup(key string) (Doc, bool) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	id, ok := x.byKey[key]
	if !ok {
		return Doc{}, false
	}
	return x.docs[id], true
}

// LookupMany returns the indexed doc for each key, in order, under one
// lock; a key that is not indexed gets the zero Doc.
func (x *Index) LookupMany(keys []string) []Doc {
	out := make([]Doc, len(keys))
	x.mu.RLock()
	defer x.mu.RUnlock()
	for i, k := range keys {
		if id, ok := x.byKey[k]; ok {
			out[i] = x.docs[id]
		}
	}
	return out
}

// Rebuild constructs the index deterministically from the stores: records
// in sorted id order, then datasets in sorted name order. Two rebuilds
// over the same store contents build equal doc tables, columns and posting
// lists, and a rebuilt index answers every query identically to one grown
// publish by publish — the property the round-trip tests pin.
func Rebuild(archive *hepdata.Archive, cat *catalog.Catalog) (*Index, error) {
	x := NewIndex()
	if archive != nil {
		for _, id := range archive.IDs() {
			r, err := archive.Get(id)
			if err != nil {
				return nil, err
			}
			etag, err := RecordETag(r)
			if err != nil {
				return nil, err
			}
			if err := x.AddRecord(r, id, etag); err != nil {
				return nil, err
			}
		}
	}
	if cat != nil {
		for _, name := range cat.Names() {
			d, ok := cat.Get(name)
			if !ok {
				return nil, fmt.Errorf("queryserve: dataset %q vanished during rebuild", name)
			}
			etag, err := DatasetETag(&d)
			if err != nil {
				return nil, err
			}
			if err := x.AddDataset(&d, etag); err != nil {
				return nil, err
			}
		}
	}
	return x, nil
}
