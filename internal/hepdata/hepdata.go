// Package hepdata implements the HepData-style reactions database of
// §2.3: a public archive of published measurement tables — "total and
// differential cross section measurements to acceptance/efficiency grids
// in mass parameter spaces" — cross-linked to the literature (INSPIRE)
// and exportable in multiple formats. It also supports the use case the
// workshop highlighted as stretching the original design: a search
// analysis uploading a large auxiliary payload (cut flows, efficiency
// grids, likelihood inputs) alongside its tables.
package hepdata

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"daspos/internal/hist"
)

// Uncertainty is one (possibly asymmetric) error component on a point.
type Uncertainty struct {
	// Label names the component ("stat", "sys,lumi", ...).
	Label string `json:"label"`
	// Plus and Minus are the up/down magnitudes (both >= 0).
	Plus  float64 `json:"plus"`
	Minus float64 `json:"minus"`
}

// Point is one row of a data table.
type Point struct {
	// X is the independent-variable value; [XLo, XHi] its bin.
	X   float64 `json:"x"`
	XLo float64 `json:"x_lo"`
	XHi float64 `json:"x_hi"`
	// Y is the measured value.
	Y float64 `json:"y"`
	// Errors are the uncertainty components on Y.
	Errors []Uncertainty `json:"errors,omitempty"`
}

// TotalError returns the quadrature sum of the point's symmetric-averaged
// uncertainty components.
func (p Point) TotalError() float64 {
	var sum2 float64
	for _, e := range p.Errors {
		avg := (e.Plus + e.Minus) / 2
		sum2 += avg * avg
	}
	return math.Sqrt(sum2)
}

// Table is one measurement table of a record.
type Table struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// XHeader and YHeader document the variables in the HepData
	// convention, e.g. "PT [GEV]" and "D(SIG)/D(PT) [PB/GEV]".
	XHeader string `json:"x_header"`
	YHeader string `json:"y_header"`
	// Reactions are the process strings, e.g. "P P --> Z0 X".
	Reactions []string `json:"reactions,omitempty"`
	// Observables label what is measured ("SIG", "DSIG/DPT", "EFF").
	Observables []string `json:"observables,omitempty"`
	Points      []Point  `json:"points"`
}

// Validate checks the table's structural invariants.
func (t *Table) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("hepdata: table without a name")
	}
	if len(t.Points) == 0 {
		return fmt.Errorf("hepdata: table %q has no points", t.Name)
	}
	for i, p := range t.Points {
		// JSON has no NaN or infinity: a record holding one could be
		// archived but never encoded, so never served or exported.
		if !finite(p.X) || !finite(p.XLo) || !finite(p.XHi) || !finite(p.Y) {
			return fmt.Errorf("hepdata: table %q point %d: non-finite value", t.Name, i)
		}
		if p.XLo > p.X || p.X > p.XHi {
			return fmt.Errorf("hepdata: table %q point %d: x=%v outside bin [%v,%v]", t.Name, i, p.X, p.XLo, p.XHi)
		}
		for _, e := range p.Errors {
			if !finite(e.Plus) || !finite(e.Minus) {
				return fmt.Errorf("hepdata: table %q point %d: non-finite uncertainty", t.Name, i)
			}
			if e.Plus < 0 || e.Minus < 0 {
				return fmt.Errorf("hepdata: table %q point %d: negative uncertainty", t.Name, i)
			}
		}
	}
	return nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// FromH1D converts a normalized histogram (a preserved analysis output)
// into a submission table, with statistical errors.
func FromH1D(h *hist.H1D, name, xHeader, yHeader string) Table {
	t := Table{Name: name, XHeader: xHeader, YHeader: yHeader}
	w := h.BinWidth()
	for i := 0; i < h.NBins; i++ {
		lo := h.Lo + float64(i)*w
		t.Points = append(t.Points, Point{
			X: h.BinCenter(i), XLo: lo, XHi: lo + w,
			Y:      h.SumW[i],
			Errors: []Uncertainty{{Label: "stat", Plus: h.BinError(i), Minus: h.BinError(i)}},
		})
	}
	return t
}

// Record is one publication's HepData entry.
type Record struct {
	// InspireID is the literature key; the archive addresses records as
	// "ins<InspireID>".
	InspireID     string  `json:"inspire_id"`
	Title         string  `json:"title"`
	Collaboration string  `json:"collaboration"`
	Year          int     `json:"year"`
	Abstract      string  `json:"abstract,omitempty"`
	Tables        []Table `json:"tables"`
	// Aux carries the auxiliary payload by path: the "large amount of
	// information uploaded" search-preservation use case.
	Aux map[string][]byte `json:"aux,omitempty"`
}

// ID returns the archive key.
func (r *Record) ID() string { return "ins" + r.InspireID }

// InspireURL returns the literature cross-link.
func (r *Record) InspireURL() string {
	return "https://inspirehep.net/record/" + r.InspireID
}

// Validate checks the record.
func (r *Record) Validate() error {
	if r.InspireID == "" {
		return fmt.Errorf("hepdata: record without Inspire ID")
	}
	if r.Title == "" || r.Collaboration == "" {
		return fmt.Errorf("hepdata: record %s missing title or collaboration", r.ID())
	}
	if len(r.Tables) == 0 {
		return fmt.Errorf("hepdata: record %s has no tables", r.ID())
	}
	seen := make(map[string]bool)
	for i := range r.Tables {
		t := &r.Tables[i]
		if err := t.Validate(); err != nil {
			return err
		}
		if seen[t.Name] {
			return fmt.Errorf("hepdata: record %s has duplicate table %q", r.ID(), t.Name)
		}
		seen[t.Name] = true
	}
	return nil
}

// AuxBytes returns the total auxiliary payload size.
func (r *Record) AuxBytes() int {
	n := 0
	for _, b := range r.Aux {
		n += len(b)
	}
	return n
}

// ErrNoRecord is returned for unknown record IDs.
var ErrNoRecord = errors.New("hepdata: no such record")

// ErrDuplicate is returned, wrapped, when a record ID is submitted twice.
var ErrDuplicate = errors.New("hepdata: record already submitted")

// Archive is the reactions database. It is safe for concurrent use. A
// published record is immutable (HEPData treats a record the same way),
// so the archive keeps each one packed into a pointer-free byte slice:
// Submit's pack is the deep copy that keeps later caller-side mutation out
// of archived state, and Get and Search decode a fresh *Record on every
// call. The caller owns that record and may change any of it, except that
// the bytes of its Aux values are the archive's own: a read does not copy
// a payload, so an Aux value may be replaced but never written in place.
type Archive struct {
	mu      sync.RWMutex
	records map[string][]byte
	// ids mirrors the map keys in sorted order, maintained on Submit, so
	// listings and keyset pagination are O(log n + page) instead of a full
	// sort per call.
	ids []string
}

// NewArchive returns an empty reactions database.
func NewArchive() *Archive {
	return &Archive{records: make(map[string][]byte)}
}

// Submit validates the record, archives a packed copy of it and returns
// the key it is archived under, r.ID(): the archive's own string, which
// an index beside it can keep instead of building a second copy.
func (a *Archive) Submit(r *Record) (id string, err error) {
	if err := r.Validate(); err != nil {
		return "", err
	}
	id = r.ID()
	packed := pack(r)
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, dup := a.records[id]; dup {
		return "", fmt.Errorf("%w: %s", ErrDuplicate, id)
	}
	a.records[id] = packed
	at := sort.SearchStrings(a.ids, id)
	a.ids = append(a.ids, "")
	copy(a.ids[at+1:], a.ids[at:])
	a.ids[at] = id
	return id, nil
}

// Len returns the number of archived records.
func (a *Archive) Len() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return len(a.records)
}

// Get decodes a record by archive key ("ins<id>") into a fresh copy whose
// Aux values share the archive's bytes.
func (a *Archive) Get(id string) (*Record, error) {
	a.mu.RLock()
	packed, ok := a.records[id]
	a.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoRecord, id)
	}
	return unpack(packed), nil
}

// IDs returns the sorted record keys.
func (a *Archive) IDs() []string {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return append([]string(nil), a.ids...)
}

// IDsAfter returns up to limit sorted record keys strictly greater than
// after (empty starts at the beginning; limit <= 0 means no bound). This
// is the keyset-pagination primitive: because keys are returned in sorted
// order from a strictly-greater anchor, a paginated walk sees every record
// that existed when it started exactly once, no matter how many records
// are published between pages.
func (a *Archive) IDsAfter(after string, limit int) []string {
	a.mu.RLock()
	defer a.mu.RUnlock()
	at := sort.SearchStrings(a.ids, after)
	// SearchStrings finds the leftmost insertion point; skip an exact match
	// so the anchor itself is excluded.
	if at < len(a.ids) && a.ids[at] == after {
		at++
	}
	end := len(a.ids)
	if limit > 0 && at+limit < end {
		end = at + limit
	}
	return append([]string(nil), a.ids[at:end]...)
}

// Search matches records whose title, collaboration, abstract, reactions,
// or observables contain the query (case-insensitive). Results come back
// in record-key order, so the listing is deterministic, each decoded as
// Get decodes it. The match reads the packed records in place and decodes
// only the hits, after the lock is released. This is the linear scan the
// queryserve inverted index replaces on the serving path; it remains the
// reference implementation and the benchmark baseline.
func (a *Archive) Search(query string) []*Record {
	q := []byte(strings.ToLower(query))
	var hits [][]byte
	var hay []byte
	a.mu.RLock()
	for _, id := range a.ids {
		packed := a.records[id]
		if len(q) > 0 {
			// Lowering the joined text equals joining the lowered fields,
			// as Search once did: ToLower never reads across a space.
			hay = appendSearchText(hay[:0], packed)
			if !bytes.Contains(bytes.ToLower(hay), q) {
				continue
			}
		}
		hits = append(hits, packed)
	}
	a.mu.RUnlock()
	out := make([]*Record, len(hits))
	for i, packed := range hits {
		out[i] = unpack(packed)
	}
	return out
}

// DecodeRecord parses and validates submission JSON.
func DecodeRecord(data []byte) (*Record, error) {
	var r Record
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("hepdata: parsing record: %w", err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}
