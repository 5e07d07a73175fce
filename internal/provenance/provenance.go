// Package provenance implements the provenance chain the paper warns is at
// risk (§3.2): "Depending on how the processing is done, the parentage and
// computing (producer) description of a given file may not be included. If
// this is the case, and the workflow is to be preserved, an external
// structure to capture that provenance chain will need to be created."
// This package is that external structure.
//
// Every produced artifact gets a Record: what was made (name, content
// digest, tier), by what (step, software, version, configuration digest),
// from what (parent record IDs), and with which external dependencies
// (conditions folders, database tags). Records are content-addressed —
// the record ID is the SHA-256 of its canonical JSON — so a chain cannot
// be silently rewritten. The Audit walks every chain back to its roots and
// reports exactly the gap the paper describes when records are missing.
package provenance

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
)

// Producer describes the computation that made an artifact.
type Producer struct {
	// Step is the workflow step name (e.g. "reconstruction").
	Step string `json:"step"`
	// Software and Version identify the release that ran.
	Software string `json:"software"`
	Version  string `json:"version"`
	// ConfigDigest is the SHA-256 of the step's captured configuration.
	ConfigDigest string `json:"config_digest"`
}

// Artifact describes a produced data product.
type Artifact struct {
	// Name is the logical dataset/file name.
	Name string `json:"name"`
	// Digest is the SHA-256 of the content.
	Digest string `json:"digest"`
	// Tier is the data-tier label (RAW, RECO, AOD, DERIVED, ...).
	Tier string `json:"tier"`
	// Events and Bytes record the artifact's extent.
	Events int   `json:"events"`
	Bytes  int64 `json:"bytes"`
}

// Record is one node of the provenance graph.
type Record struct {
	// ID is the content address of the record; it is computed by the
	// store, never set by callers.
	ID string `json:"id"`
	// Seq is a monotonically increasing sequence number assigned by the
	// store, giving a reproducible total order without wall clocks.
	Seq int `json:"seq"`

	Output   Artifact `json:"output"`
	Producer Producer `json:"producer"`
	// Parents are the record IDs of the inputs. Empty for primary inputs
	// (generated or acquired data).
	Parents []string `json:"parents,omitempty"`
	// ConditionsTag pins the calibration used, if any.
	ConditionsTag string `json:"conditions_tag,omitempty"`
	// ExternalDeps lists external resources the step resolved (conditions
	// folders, catalogs): the census of experiment W2.
	ExternalDeps []string `json:"external_deps,omitempty"`
}

// recordID hashes the canonical JSON of the record with ID cleared.
func recordID(r Record) (string, error) {
	r.ID = ""
	data, err := json.Marshal(r)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// Store holds provenance records and answers graph queries. It is not safe
// for concurrent mutation; workflow execution is single-writer.
type Store struct {
	records map[string]*Record
	nextSeq int
}

// NewStore returns an empty provenance store.
func NewStore() *Store {
	return &Store{records: make(map[string]*Record)}
}

// ErrUnknownParent is returned by Add when a parent ID is not in the store.
var ErrUnknownParent = errors.New("provenance: unknown parent record")

// Add computes the record's content address, assigns its sequence number,
// and stores it. Parents must already exist — provenance is written in
// production order. Returns the record ID.
func (s *Store) Add(r Record) (string, error) {
	for _, p := range r.Parents {
		if _, ok := s.records[p]; !ok {
			return "", fmt.Errorf("%w: %s", ErrUnknownParent, p)
		}
	}
	r.Seq = s.nextSeq
	id, err := recordID(r)
	if err != nil {
		return "", err
	}
	if _, dup := s.records[id]; dup {
		return "", fmt.Errorf("provenance: duplicate record %s", id)
	}
	r.ID = id
	s.nextSeq++
	s.records[id] = &r
	return id, nil
}

// All returns every record ordered by sequence number.
func (s *Store) All() []Record {
	out := make([]Record, 0, len(s.records))
	for _, r := range s.records {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Lineage returns the record's full ancestry (the record itself first,
// then ancestors in breadth-first order). Missing ancestors terminate
// their branch silently; use Audit to detect them.
func (s *Store) Lineage(id string) ([]Record, error) {
	start, ok := s.records[id]
	if !ok {
		return nil, fmt.Errorf("provenance: no record %s", id)
	}
	seen := map[string]bool{id: true}
	out := []Record{*start}
	queue := append([]string(nil), start.Parents...)
	for len(queue) > 0 {
		next := queue[0]
		queue = queue[1:]
		if seen[next] {
			continue
		}
		seen[next] = true
		r, ok := s.records[next]
		if !ok {
			continue
		}
		out = append(out, *r)
		queue = append(queue, r.Parents...)
	}
	return out, nil
}

// AuditReport summarizes chain completeness: the quantity experiment W3
// measures with and without external provenance capture.
type AuditReport struct {
	// Records is the number of records audited.
	Records int
	// Complete counts records whose every ancestry branch terminates in a
	// root record (a record with no parents).
	Complete int
	// Broken lists the IDs of records with at least one unresolvable
	// ancestor.
	Broken []string
}

// CompleteFraction returns the fraction of records with full chains.
func (a AuditReport) CompleteFraction() float64 {
	if a.Records == 0 {
		return 1
	}
	return float64(a.Complete) / float64(a.Records)
}

// Audit checks every record's ancestry for completeness.
func (s *Store) Audit() AuditReport {
	memo := make(map[string]bool, len(s.records))
	var complete func(id string, visiting map[string]bool) bool
	complete = func(id string, visiting map[string]bool) bool {
		if v, ok := memo[id]; ok {
			return v
		}
		if visiting[id] {
			// A cycle is never complete; it cannot reach a root.
			return false
		}
		r, ok := s.records[id]
		if !ok {
			return false
		}
		visiting[id] = true
		defer delete(visiting, id)
		result := true
		for _, p := range r.Parents {
			if !complete(p, visiting) {
				result = false
				break
			}
		}
		memo[id] = result
		return result
	}
	rep := AuditReport{Records: len(s.records)}
	ids := make([]string, 0, len(s.records))
	for id := range s.records {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if complete(id, map[string]bool{}) {
			rep.Complete++
		} else {
			rep.Broken = append(rep.Broken, id)
		}
	}
	return rep
}

// WriteJSON serializes the store (records in sequence order).
func (s *Store) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.All())
}

// ReadJSON loads a store from its JSON form and verifies record integrity.
// Dangling parents are tolerated here — an incomplete archived chain must
// still be loadable so Audit can quantify the damage.
func ReadJSON(r io.Reader) (*Store, error) {
	var records []Record
	if err := json.NewDecoder(r).Decode(&records); err != nil {
		return nil, fmt.Errorf("provenance: parsing store: %w", err)
	}
	s := NewStore()
	for _, rec := range records {
		want, err := recordID(rec)
		if err != nil {
			return nil, err
		}
		if want != rec.ID {
			return nil, fmt.Errorf("provenance: record %s fails content check on load", rec.ID)
		}
		cp := rec
		s.records[rec.ID] = &cp
		if rec.Seq >= s.nextSeq {
			s.nextSeq = rec.Seq + 1
		}
	}
	return s, nil
}
