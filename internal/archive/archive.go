// Package archive implements the preservation archive: BagIt-style
// archival information packages (payload files + fixity manifest +
// descriptive metadata) over a content-addressed store. This is the
// "proper curation" layer the paper finds missing from current practice
// ("the means of preservation varies, from transient web or Wiki pages to
// printed materials; none ... would fit the characterization of proper
// curation of a preserved analysis").
//
// A package carries its DPHEP level, the conditions tag it depends on, and
// digests linking to its environment manifest and provenance chain, so a
// future consumer can answer: what is this, can I still run it, and where
// did it come from.
//
// An archive Open makes lives in a directory: its blobs in blobs/, one
// durable file each (cas.DiskBackend), and its index in packages.log, an
// append-only journal with one Package per line. Adding a package writes
// its new blobs and appends one line; nothing already there is rewritten.
package archive

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

	"daspos/internal/cas"
	"daspos/internal/datamodel"
	"daspos/internal/journal"
)

// File is one payload entry of a package.
type File struct {
	// Path is the logical path within the package.
	Path string `json:"path"`
	// Digest is the CAS address of the content.
	Digest string `json:"digest"`
	Size   int64  `json:"size"`
}

// Metadata describes a package for discovery and reuse.
type Metadata struct {
	// ID is assigned at ingest: the content address of the package
	// manifest. Never set by callers.
	ID string `json:"id"`
	// Title, Creator, and Description are the Dublin-Core-ish descriptive
	// minimum.
	Title       string `json:"title"`
	Creator     string `json:"creator"`
	Description string `json:"description,omitempty"`
	// Level is the DPHEP preservation level of the content.
	Level datamodel.DPHEPLevel `json:"dphep_level"`
	// ConditionsTag pins external calibration, when the content needs it.
	ConditionsTag string `json:"conditions_tag,omitempty"`
	// EnvManifest and Provenance are package paths (not digests) of the
	// environment manifest and provenance chain files, when included.
	EnvManifest string `json:"env_manifest,omitempty"`
	Provenance  string `json:"provenance,omitempty"`
	// Keywords support discovery.
	Keywords []string `json:"keywords,omitempty"`
}

// Package is one archival information package.
type Package struct {
	Metadata Metadata `json:"metadata"`
	Files    []File   `json:"files"`
}

// TotalBytes returns the package's payload size.
func (p *Package) TotalBytes() int64 {
	var n int64
	for _, f := range p.Files {
		n += f.Size
	}
	return n
}

// File returns the entry at a path, or nil.
func (p *Package) File(path string) *File {
	for i := range p.Files {
		if p.Files[i].Path == path {
			return &p.Files[i]
		}
	}
	return nil
}

// Errors returned by the archive.
var (
	ErrNoPackage = errors.New("archive: no such package")
	ErrNoFile    = errors.New("archive: no such file in package")
)

// Archive is the package store. It is safe for concurrent use: the
// package index is mutex-guarded and the blob store underneath is
// concurrency-safe, so parallel ingest and fixity sweeps can share one
// archive.
type Archive struct {
	blobs *cas.Store
	// index is the package journal of an archive Open made; nil for one
	// over a caller's store.
	index *journal.Journal

	mu       sync.RWMutex
	packages map[string]*Package
}

// New returns an empty archive over an in-memory blob store.
func New() *Archive {
	return NewWithStore(cas.NewStore())
}

// NewWithStore returns an empty archive over a caller-supplied blob store
// — a store over a cluster.Client makes it the preservation network's
// archive, and chaos tests wrap the store's backend through
// internal/faults.
func NewWithStore(blobs *cas.Store) *Archive {
	return &Archive{blobs: blobs, packages: make(map[string]*Package)}
}

// Open creates or reopens the archive in a directory. Replaying the index
// recomputes every package ID and fails, naming the line, on one that does
// not match; a package recorded twice is indexed once.
func Open(dir string) (*Archive, error) {
	disk, err := cas.OpenDisk(filepath.Join(dir, "blobs"))
	if err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	a := NewWithStore(cas.NewStoreWith(disk))
	if a.index, err = journal.Open(filepath.Join(dir, "packages.log"), a.add); err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	return a, nil
}

// Close releases the index of an archive Open made; the directory stays
// valid for a later Open.
func (a *Archive) Close() error {
	if a.index == nil {
		return nil
	}
	return a.index.Close()
}

// add indexes a package read back from an index, holding it to its ID:
// blob fixity does not cover the index, so the ID is recomputed rather than
// believed.
func (a *Archive) add(pkg *Package) error {
	if pkg == nil {
		return fmt.Errorf("archive: null package in index")
	}
	id, err := packageID(pkg)
	if err != nil {
		return err
	}
	if id != pkg.Metadata.ID {
		return fmt.Errorf("archive: package %q (%q) does not match its ID: metadata altered", pkg.Metadata.ID, pkg.Metadata.Title)
	}
	if _, dup := a.packages[id]; !dup {
		a.packages[id] = pkg
	}
	return nil
}

// Ingest stores the payload files and registers the package, returning its
// assigned ID. Metadata.EnvManifest and Metadata.Provenance, when set,
// must name ingested paths. In an archive Open made, the index append is
// the commit point: the blobs are durable before the line naming them is
// written, so a crash in between leaves unreferenced blobs and no package.
func (a *Archive) Ingest(meta Metadata, files map[string][]byte) (string, error) {
	if meta.Title == "" {
		return "", fmt.Errorf("archive: package needs a title")
	}
	if meta.ID != "" {
		return "", fmt.Errorf("archive: metadata ID is assigned at ingest, not supplied")
	}
	if len(files) == 0 {
		return "", fmt.Errorf("archive: package %q has no payload", meta.Title)
	}
	pkg := &Package{Metadata: meta}
	paths := make([]string, 0, len(files))
	for path := range files {
		if path == "" || strings.HasPrefix(path, "/") || strings.Contains(path, "..") {
			return "", fmt.Errorf("archive: invalid payload path %q", path)
		}
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		digest, err := a.blobs.Put(files[path])
		if err != nil {
			return "", fmt.Errorf("archive: storing %q: %w", path, err)
		}
		pkg.Files = append(pkg.Files, File{Path: path, Digest: digest, Size: int64(len(files[path]))})
	}
	for _, special := range []string{meta.EnvManifest, meta.Provenance} {
		if special != "" && pkg.File(special) == nil {
			return "", fmt.Errorf("archive: metadata references %q which is not in the payload", special)
		}
	}
	id, err := packageID(pkg)
	if err != nil {
		return "", err
	}
	pkg.Metadata.ID = id
	if _, dup := a.Get(id); dup {
		return "", fmt.Errorf("archive: identical package already ingested (%s)", id)
	}
	if a.index != nil {
		// Not under a.mu: readers and audits go on while the line is
		// fsynced. Two racing ingests of one package both append it, and
		// replay indexes it once.
		if err := a.index.Append(pkg); err != nil {
			return "", fmt.Errorf("archive: %w", err)
		}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, dup := a.packages[id]; dup {
		return "", fmt.Errorf("archive: identical package already ingested (%s)", id)
	}
	a.packages[id] = pkg
	return id, nil
}

// packageID is the content address of a package: the digest of its
// manifest marshalled with the ID field empty.
func packageID(pkg *Package) (string, error) {
	unsigned := *pkg
	unsigned.Metadata.ID = ""
	manifest, err := json.Marshal(&unsigned)
	if err != nil {
		return "", err
	}
	return cas.Digest(manifest), nil
}

// Get returns the package with the given ID.
func (a *Archive) Get(id string) (*Package, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	p, ok := a.packages[id]
	return p, ok
}

// Fetch retrieves one payload file with fixity checking.
func (a *Archive) Fetch(id, path string) ([]byte, error) {
	pkg, ok := a.Get(id)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoPackage, id)
	}
	f := pkg.File(path)
	if f == nil {
		return nil, fmt.Errorf("%w: %s in %s", ErrNoFile, path, id)
	}
	data, err := a.blobs.Get(f.Digest)
	if err != nil {
		return nil, fmt.Errorf("archive: fetching %s from %s: %w", path, id, err)
	}
	return data, nil
}

// VerifyPackage fixity-checks every file of a package, without
// materialising any of them.
func (a *Archive) VerifyPackage(id string) error {
	pkg, ok := a.Get(id)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoPackage, id)
	}
	for _, f := range pkg.Files {
		logical, err := a.blobs.Verify(f.Digest)
		if err != nil {
			return fmt.Errorf("archive: package %s file %s: %w", id, f.Path, err)
		}
		if logical != f.Size {
			return fmt.Errorf("archive: package %s file %s: size drift", id, f.Path)
		}
	}
	return nil
}

// VerifyReport summarizes an archive-wide fixity pass.
type VerifyReport struct {
	Packages int
	Healthy  int
	// Damaged maps package IDs to the failure description.
	Damaged map[string]string
}

// VerifyAll fixity-checks every package — the scheduled integrity audit a
// level-5 maturity rating requires ("disaster recovery plans are routinely
// tested and shown to be effective"). The audit decompresses and rehashes
// every blob, so it fans out across GOMAXPROCS workers.
func (a *Archive) VerifyAll() VerifyReport {
	return a.VerifyAllWorkers(context.Background(), runtime.GOMAXPROCS(0))
}

// VerifyAllWorkers is VerifyAll with an explicit worker count (minimum 1).
// Cancelling the context stops the sweep early; the returned report then
// covers only the packages already audited.
func (a *Archive) VerifyAllWorkers(ctx context.Context, workers int) VerifyReport {
	ids := a.IDs()
	rep := VerifyReport{Packages: len(ids), Damaged: make(map[string]string)}
	if workers < 1 {
		workers = 1
	}
	if workers > len(ids) {
		workers = len(ids)
	}
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	next := make(chan string)
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for id := range next {
				err := a.VerifyPackage(id)
				mu.Lock()
				if err != nil {
					rep.Damaged[id] = err.Error()
				} else {
					rep.Healthy++
				}
				mu.Unlock()
			}
		}()
	}
feed:
	for _, id := range ids {
		select {
		case next <- id:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
	return rep
}

// IDs returns the sorted package IDs.
func (a *Archive) IDs() []string {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]string, 0, len(a.packages))
	for id := range a.packages {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// CorruptBlob flips bits in the stored blob with the given digest — the
// fault-injection hook for disaster-recovery tests.
func (a *Archive) CorruptBlob(digest string) error { return a.blobs.Corrupt(digest) }

// ReadImage reads an archive image, the single file earlier builds of
// daspos-archive wrote: a decimal index length and a newline, a JSON index
// of every package, then the blob stream cas.LoadUnverified reads. No blob
// is checked, so VerifyAll on the result is the one fixity pass and names
// what is damaged; the index is held to the package IDs.
func ReadImage(image []byte) (*Archive, error) {
	head, rest, _ := bytes.Cut(image, []byte("\n"))
	n, err := strconv.Atoi(string(head))
	if err != nil || n <= 0 || n > len(rest) {
		return nil, fmt.Errorf("archive: implausible index length %.20q for %d bytes", head, len(rest))
	}
	var idx struct {
		Packages []*Package `json:"packages"`
	}
	if err := json.Unmarshal(rest[:n], &idx); err != nil {
		return nil, fmt.Errorf("archive: parsing index: %w", err)
	}
	blobs, err := cas.LoadUnverified(rest[n:])
	if err != nil {
		return nil, err
	}
	a := NewWithStore(blobs)
	for _, pkg := range idx.Packages {
		if err := a.add(pkg); err != nil {
			return nil, err
		}
	}
	return a, nil
}
