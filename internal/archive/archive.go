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
// A package's manifest (the Package, ID empty) is a blob whose digest is
// the package ID, so Recover rebuilds an index from blobs alone: over a
// cluster.Client, archive.Recover(cl) beside archive.NewWithStore. An
// archive Open makes lives in a directory: blobs in blobs/ (a
// cas.DiskBackend), and in packages.log, a journal, one package ID per
// line. Adding a package writes its new blobs and appends one line.
package archive

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
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

// Errors returned by the archive. Ingest returns ErrDuplicate together
// with the ID of the package that is already there.
var (
	ErrNoPackage = errors.New("archive: no such package")
	ErrNoFile    = errors.New("archive: no such file in package")
	ErrDuplicate = errors.New("archive: identical package already ingested")
)

// Archive is the package store. It is safe for concurrent use: the
// package index is mutex-guarded and the blob store underneath is
// concurrency-safe, so parallel ingest and fixity sweeps can share one
// archive.
type Archive struct {
	blobs *cas.Store
	// disk and index are the blobs/ directory and the roots log of an
	// archive Open made; nil for one over a caller's store.
	disk  *cas.DiskBackend
	index *journal.Journal

	mu       sync.RWMutex
	packages map[string]*Package
	roots    []string // package IDs in the order they were first indexed
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

// Open creates or reopens the archive in a directory. Replaying a root
// reads its manifest, checked; a line that is not a digest, or names a
// missing or damaged manifest, fails Open naming the line. With no
// packages.log, Open writes one from Recover over blobs/ in one atomic
// Write, so a crash mid-rebuild leaves no log to trust.
func Open(dir string) (*Archive, error) { return open(cas.OpenDir(dir)) }

// open is Open over the directory's cas.Dir, which commits a rebuilt log.
func open(root *cas.Dir, err error) (*Archive, error) {
	if err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	disk, err := cas.OpenDisk(root.Path("blobs"))
	if err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	a := NewWithStore(cas.NewStoreWith(disk))
	if _, err := os.Stat(root.Path("packages.log")); os.IsNotExist(err) {
		if a, err = Recover(disk); err != nil {
			return nil, err
		}
		var roots []byte
		for _, id := range a.IDs() {
			roots = append(strconv.AppendQuote(roots, id), '\n') // a hex digest quotes as JSON does
		}
		if err := root.Write("packages.log", roots); err != nil {
			return nil, fmt.Errorf("archive: rebuilding packages.log: %w", err)
		}
	}
	a.disk = disk
	if a.index, err = journal.Open(root.Path("packages.log"), a.replay); err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	return a, nil
}

// Recover rebuilds an index from blobs alone: every manifest among them is
// a package, and Roots lists them in digest order. A blob that cannot be
// read fails Recover, naming the digest.
func Recover(b cas.Backend) (*Archive, error) {
	a := NewWithStore(cas.NewStoreWith(b))
	for _, digest := range b.Digests() {
		if pkg, err := a.manifest(digest); err == nil {
			a.addPackage(digest, pkg)
		} else if !errors.Is(err, errNotManifest) {
			return nil, fmt.Errorf("archive: recovering: %w", err)
		}
	}
	return a, nil
}

var errNotManifest = errors.New("not a package manifest")

// manifest reads a blob, checked, as a manifest: a Package with an empty ID
// that re-encodes to the blob's own bytes, so its digest is its ID.
func (a *Archive) manifest(digest string) (*Package, error) {
	data, err := a.blobs.Get(digest)
	if err != nil {
		return nil, err
	}
	var pkg Package
	err = json.Unmarshal(data, &pkg)
	if again, _ := json.Marshal(&pkg); err != nil || pkg.Metadata.ID != "" || !bytes.Equal(again, data) {
		return nil, errNotManifest
	}
	pkg.Metadata.ID = digest
	return &pkg, nil
}

// addPackage indexes one package; a.mu is held or not yet shared.
func (a *Archive) addPackage(id string, pkg *Package) {
	if _, ok := a.packages[id]; !ok {
		a.roots = append(a.roots, id)
	}
	a.packages[id] = pkg
}

// SetKill installs a fault hook invoked at every kill point of an archive
// Open made: the object.* points of blobs/ and the journal.* points of
// packages.log. The chaos tests arm it with faults.Killer; production
// leaves it unset.
func (a *Archive) SetKill(fn func(point string)) {
	a.disk.SetKill(fn)
	a.index.SetKill(fn)
}

// Stage stores a payload whose digest the caller has checked in blobs/ of
// an archive Open made, in its raw stored form (cas.DiskBackend.PutRaw):
// not deflated and not copied, for an IngestStaged to name. A file that
// holds other bytes (damage) is replaced.
func (a *Archive) Stage(digest string, payload []byte) error { return a.disk.PutRaw(digest, payload) }

// Close releases the index of an archive Open made; the directory stays
// valid for a later Open.
func (a *Archive) Close() error {
	if a.index == nil {
		return nil
	}
	return a.index.Close()
}

// replay indexes one packages.log line: a root, or a whole Package an
// earlier build wrote. Indexing an ID twice is harmless.
func (a *Archive) replay(line json.RawMessage) error {
	var pkg *Package
	if json.Unmarshal(line, &pkg) == nil {
		return a.adopt(pkg)
	}
	var id string
	if err := json.Unmarshal(line, &id); err != nil {
		return err
	}
	if !cas.IsDigest(id) { // it is a file name next
		return fmt.Errorf("archive: root %.80q is not a package ID", id)
	}
	pkg, err := a.manifest(id)
	if err != nil {
		return fmt.Errorf("archive: package %s manifest: %w", id, err)
	}
	a.addPackage(id, pkg)
	return nil
}

// adopt indexes a Package record an earlier build wrote and stores its
// manifest. The one place an ID is recomputed: before the Put, so an
// altered record stores nothing.
func (a *Archive) adopt(pkg *Package) error {
	if pkg == nil {
		return fmt.Errorf("archive: null package in index")
	}
	id := pkg.Metadata.ID
	pkg.Metadata.ID = ""
	manifest, err := json.Marshal(pkg)
	if err != nil {
		return err
	}
	if cas.Digest(manifest) != id {
		return fmt.Errorf("archive: package %q (%q) does not match its ID: metadata altered", id, pkg.Metadata.Title)
	}
	if _, err := a.blobs.Put(manifest); err != nil {
		return fmt.Errorf("archive: storing the manifest of %s: %w", id, err)
	}
	pkg.Metadata.ID = id
	a.addPackage(id, pkg)
	return nil
}

// Ingest stores the payload files, then the manifest, whose digest is the
// ID it returns. Metadata.EnvManifest and Metadata.Provenance, when set,
// must name payload paths; a rejected package writes nothing. A package
// already in the archive is ErrDuplicate, returned with its ID. In an
// archive Open made, the roots append is the commit point: a crash before
// it leaves unreferenced blobs and no package.
func (a *Archive) Ingest(meta Metadata, files map[string][]byte) (string, error) {
	return a.IngestStaged(meta, files, nil)
}

// IngestStaged is Ingest of a package some of whose payload files Stage
// stored: each staged File names its path, digest and size, and is neither
// hashed nor stored again.
func (a *Archive) IngestStaged(meta Metadata, files map[string][]byte, staged []File) (string, error) {
	if meta.Title == "" {
		return "", fmt.Errorf("archive: package needs a title")
	}
	if meta.ID != "" {
		return "", fmt.Errorf("archive: metadata ID is assigned at ingest, not supplied")
	}
	pkg := &Package{Metadata: meta, Files: slices.Clone(staged)}
	for path, data := range files {
		pkg.Files = append(pkg.Files, File{Path: path, Size: int64(len(data))})
	}
	if len(pkg.Files) == 0 {
		return "", fmt.Errorf("archive: package %q has no payload", meta.Title)
	}
	slices.SortFunc(pkg.Files, func(x, y File) int { return strings.Compare(x.Path, y.Path) })
	for i, f := range pkg.Files {
		if f.Path == "" || strings.HasPrefix(f.Path, "/") || strings.Contains(f.Path, "..") || i > 0 && f.Path == pkg.Files[i-1].Path {
			return "", fmt.Errorf("archive: invalid payload path %q", f.Path)
		}
	}
	for _, special := range []string{meta.EnvManifest, meta.Provenance} {
		if special != "" && pkg.File(special) == nil {
			return "", fmt.Errorf("archive: metadata references %q which is not in the payload", special)
		}
	}
	var (
		payloads [][]byte
		at       []int // the File each payload is
	)
	for i, f := range pkg.Files {
		if data, ok := files[f.Path]; ok {
			payloads = append(payloads, data)
			at = append(at, i)
		}
	}
	digests, err := a.blobs.PutMany(payloads)
	if err != nil {
		return "", fmt.Errorf("archive: storing the files of %q: %w", meta.Title, err)
	}
	for k, i := range at {
		pkg.Files[i].Digest = digests[k]
	}
	manifest, err := json.Marshal(pkg)
	if err != nil {
		return "", err
	}
	id, err := a.blobs.Put(manifest)
	if err != nil {
		return "", fmt.Errorf("archive: storing the manifest of %q: %w", meta.Title, err)
	}
	pkg.Metadata.ID = id
	if _, dup := a.Get(id); dup {
		return id, fmt.Errorf("%w (%s)", ErrDuplicate, id)
	}
	if a.index != nil {
		// Not under a.mu: readers and audits go on while the line is
		// fsynced. Two racing ingests of one package both append it, and
		// replay indexes it once.
		if err := a.index.Append(id); err != nil {
			return "", fmt.Errorf("archive: %w", err)
		}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, dup := a.packages[id]; dup {
		return id, fmt.Errorf("%w (%s)", ErrDuplicate, id)
	}
	a.addPackage(id, pkg)
	return id, nil
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

// VerifyPackage fixity-checks a package's manifest and every file, without
// materialising any of them.
func (a *Archive) VerifyPackage(id string) error {
	if _, ok := a.Get(id); !ok {
		return fmt.Errorf("%w: %s", ErrNoPackage, id)
	}
	return a.verify(context.Background(), []string{id}, runtime.GOMAXPROCS(0))[id]
}

// VerifyReport summarizes an archive-wide fixity pass.
type VerifyReport struct {
	Packages int
	Healthy  int
	// Damaged maps package IDs to the failure description.
	Damaged map[string]string
}

// VerifyAll fixity-checks every package, manifests included, so it audits
// the index as well as the payload — the scheduled integrity audit a
// level-5 maturity rating requires ("disaster recovery plans are routinely
// tested and shown to be effective"). Over a local store the audit
// decompresses and rehashes every blob, fanned out across GOMAXPROCS
// workers; over a fleet it takes every owner's node verdict (see
// VerifyAllWorkers).
func (a *Archive) VerifyAll() VerifyReport {
	return a.VerifyAllWorkers(context.Background(), runtime.GOMAXPROCS(0))
}

// VerifyAllWorkers is VerifyAll with an explicit worker count (minimum 1)
// for the local kernel. Every distinct blob is checked once, in one
// Store.VerifyMany: over a cas.ListBackend (a fleet) that is each owner's
// node verdict, with nothing fetched or inflated, and over any other
// backend the kernel here. Each file's verdict must also count the size
// its manifest records. Cancelling the context stops the audit early; the
// returned report then covers only the packages whose blobs were all
// checked.
func (a *Archive) VerifyAllWorkers(ctx context.Context, workers int) VerifyReport {
	ids := a.IDs()
	rep := VerifyReport{Packages: len(ids), Damaged: make(map[string]string)}
	for id, err := range a.verify(ctx, ids, workers) {
		switch {
		case err == nil:
			rep.Healthy++
		case !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded):
			rep.Damaged[id] = err.Error()
		}
	}
	return rep
}

// verify checks the manifests and files of the given packages, each
// distinct blob once, and returns each package's first failure, in the
// order manifest then files, or nil.
func (a *Archive) verify(ctx context.Context, ids []string, workers int) map[string]error {
	pkgs := make([]*Package, len(ids))
	var digests []string
	seen := make(map[string]int) // digest → its index in digests
	add := func(d string) {
		if _, ok := seen[d]; !ok {
			seen[d] = len(digests)
			digests = append(digests, d)
		}
	}
	for i, id := range ids {
		pkgs[i], _ = a.Get(id)
		add(id)
		for _, f := range pkgs[i].Files {
			add(f.Digest)
		}
	}
	logical, errs := a.blobs.VerifyMany(ctx, digests, workers)
	out := make(map[string]error, len(ids))
	for i, id := range ids {
		out[id] = nil
		if err := errs[seen[id]]; err != nil {
			out[id] = fmt.Errorf("archive: package %s manifest: %w", id, err)
			continue
		}
		for _, f := range pkgs[i].Files {
			k := seen[f.Digest]
			if errs[k] != nil {
				out[id] = fmt.Errorf("archive: package %s file %s: %w", id, f.Path, errs[k])
				break
			}
			if logical[k] != f.Size {
				out[id] = fmt.Errorf("archive: package %s file %s: size drift", id, f.Path)
				break
			}
		}
	}
	return out
}

// Roots returns the package IDs in the order they were first indexed: the
// order of packages.log in an archive Open made, then of its ingests.
func (a *Archive) Roots() []string {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return slices.Clone(a.roots)
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
// what is damaged; each index entry is adopted, held to its ID.
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
		if err := a.adopt(pkg); err != nil {
			return nil, err
		}
	}
	return a, nil
}
