// Package catalog implements the dataset and file catalogue: the
// bookkeeping layer every experiment in the paper's workflow survey runs
// between its processing steps. Datasets group files of one tier and one
// processing version; parent links record which dataset each was derived
// from, complementing the per-artifact provenance chain with the
// dataset-level view an analyst actually queries ("which AOD version is
// this skim based on, and on which raw runs is that based?").
package catalog

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// FileEntry is one file of a dataset.
type FileEntry struct {
	// LFN is the logical file name, unique within the dataset.
	LFN string `json:"lfn"`
	// Digest is the content address of the file (links into CAS/archive).
	Digest string `json:"digest"`
	Bytes  int64  `json:"bytes"`
	Events int    `json:"events"`
}

// Dataset groups the files of one processing output.
type Dataset struct {
	// Name is the dataset path, e.g. "/mc/zmumu/AOD/v3".
	Name string `json:"name"`
	// Tier is the data-tier label.
	Tier string `json:"tier"`
	// ProcessingVersion identifies the pass that made it.
	ProcessingVersion string `json:"processing_version"`
	// ConditionsTag pins the calibration used.
	ConditionsTag string `json:"conditions_tag,omitempty"`
	// Parent names the dataset this one was derived from; empty for
	// primary data.
	Parent string `json:"parent,omitempty"`
	// ProvenanceRecord links the dataset to its provenance chain.
	ProvenanceRecord string `json:"provenance_record,omitempty"`
	// Closed datasets are immutable: production has finished.
	Closed bool `json:"closed"`
	// Metadata holds free-form discovery keys.
	Metadata map[string]string `json:"metadata,omitempty"`
	Files    []FileEntry       `json:"files"`
}

// Errors returned by the catalogue.
var (
	ErrNoDataset = errors.New("catalog: no such dataset")
	ErrClosed    = errors.New("catalog: dataset is closed")
	ErrExists    = errors.New("catalog: dataset already exists")
)

// Catalog is the dataset store. It is safe for concurrent use: mutation
// takes an exclusive lock, reads share one, and every read API hands out
// copies — a Dataset returned from Get or Query is the caller's to keep,
// detached from later AddFile/Close mutation. The serving tier reads it
// under load while production jobs keep registering files.
type Catalog struct {
	mu       sync.RWMutex
	datasets map[string]*Dataset
	// names mirrors the map keys in sorted order, maintained on Create, so
	// listings and keyset pagination need no per-call sort.
	names []string
}

// New returns an empty catalogue.
func New() *Catalog {
	return &Catalog{datasets: make(map[string]*Dataset)}
}

// insertName splices a new dataset name into the sorted listing. Caller
// holds the write lock.
func (c *Catalog) insertName(name string) {
	at := sort.SearchStrings(c.names, name)
	c.names = append(c.names, "")
	copy(c.names[at+1:], c.names[at:])
	c.names[at] = name
}

// Create registers a new, open dataset. The parent, when named, must
// already exist.
func (c *Catalog) Create(d Dataset) error {
	if !strings.HasPrefix(d.Name, "/") {
		return fmt.Errorf("catalog: dataset name %q must be a path", d.Name)
	}
	if d.Tier == "" {
		return fmt.Errorf("catalog: dataset %q needs a tier", d.Name)
	}
	if len(d.Files) != 0 {
		return fmt.Errorf("catalog: create dataset %q empty, then AddFile", d.Name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.datasets[d.Name]; dup {
		return fmt.Errorf("%w: %q", ErrExists, d.Name)
	}
	if d.Parent != "" {
		if _, ok := c.datasets[d.Parent]; !ok {
			return fmt.Errorf("%w: parent %q of %q", ErrNoDataset, d.Parent, d.Name)
		}
	}
	d.Closed = false
	// Copy the metadata map too: the caller's map must not alias catalogue
	// state it can mutate outside the lock.
	if d.Metadata != nil {
		md := make(map[string]string, len(d.Metadata))
		for k, v := range d.Metadata {
			md[k] = v
		}
		d.Metadata = md
	}
	cp := d
	c.datasets[d.Name] = &cp
	c.insertName(d.Name)
	return nil
}

// AddFile appends a file to an open dataset. LFNs must be unique within
// the dataset.
func (c *Catalog) AddFile(dataset string, f FileEntry) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.datasets[dataset]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoDataset, dataset)
	}
	if d.Closed {
		return fmt.Errorf("%w: %s", ErrClosed, dataset)
	}
	if f.LFN == "" {
		return fmt.Errorf("catalog: file in %q needs an LFN", dataset)
	}
	for _, existing := range d.Files {
		if existing.LFN == f.LFN {
			return fmt.Errorf("catalog: duplicate LFN %q in %q", f.LFN, dataset)
		}
	}
	d.Files = append(d.Files, f)
	return nil
}

// Close freezes a dataset; further AddFile calls fail.
func (c *Catalog) Close(dataset string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.datasets[dataset]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoDataset, dataset)
	}
	d.Closed = true
	return nil
}

// copyLocked clones a dataset for hand-out. Caller holds at least a read
// lock.
func copyLocked(d *Dataset) Dataset {
	cp := *d
	cp.Files = append([]FileEntry(nil), d.Files...)
	if d.Metadata != nil {
		md := make(map[string]string, len(d.Metadata))
		for k, v := range d.Metadata {
			md[k] = v
		}
		cp.Metadata = md
	}
	return cp
}

// Get returns a copy of the dataset.
func (c *Catalog) Get(name string) (Dataset, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	d, ok := c.datasets[name]
	if !ok {
		return Dataset{}, false
	}
	return copyLocked(d), true
}

// Len returns the number of registered datasets.
func (c *Catalog) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.datasets)
}

// Names returns the sorted dataset names.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]string(nil), c.names...)
}

// NamesAfter returns up to limit sorted dataset names strictly greater
// than after (empty starts at the beginning; limit <= 0 means no bound) —
// the keyset-pagination primitive: a paginated walk anchored on the last
// name seen returns every dataset that existed at walk start exactly once
// regardless of concurrent Create calls.
func (c *Catalog) NamesAfter(after string, limit int) []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	at := sort.SearchStrings(c.names, after)
	if at < len(c.names) && c.names[at] == after {
		at++
	}
	end := len(c.names)
	if limit > 0 && at+limit < end {
		end = at + limit
	}
	return append([]string(nil), c.names[at:end]...)
}

// Lineage walks parent links from a dataset to its primary ancestor,
// returning the chain starting with the dataset itself. The walk runs
// under one read lock, so it sees a consistent snapshot of the parent
// graph.
func (c *Catalog) Lineage(name string) ([]Dataset, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	seen := make(map[string]bool)
	var out []Dataset
	for name != "" {
		if seen[name] {
			return nil, fmt.Errorf("catalog: parent cycle at %q", name)
		}
		seen[name] = true
		d, ok := c.datasets[name]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNoDataset, name)
		}
		out = append(out, copyLocked(d))
		name = d.Parent
	}
	return out, nil
}
