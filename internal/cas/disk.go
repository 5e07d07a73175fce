package cas

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
)

// Dir is the one durable blob store in the tree: a flat directory of files
// named by content address, each published by temp-write → fsync → rename
// → dir-fsync. It knows nothing of formats: a DiskBackend keeps stored
// forms in one, and a directory archive commits its rebuilt roots log
// through another.
type Dir struct {
	path string
	kill atomic.Pointer[func(point string)]
}

const tmpPrefix = "tmp-"

// OpenDir creates the directory if needed, drops the temp files a crash
// left before their rename, and fsyncs it, so whatever an earlier process
// renamed into it is durable before anything new names it.
func OpenDir(path string) (*Dir, error) {
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, fmt.Errorf("cas: creating %s: %w", path, err)
	}
	if tmps, err := filepath.Glob(filepath.Join(path, tmpPrefix+"*")); err == nil {
		for _, p := range tmps {
			os.Remove(p)
		}
	}
	if err := syncDir(path); err != nil {
		return nil, err
	}
	return &Dir{path: path}, nil
}

// Path returns where the file of a name lives.
func (d *Dir) Path(name string) string { return filepath.Join(d.path, name) }

// Read returns the content of name as it is on disk.
func (d *Dir) Read(name string) ([]byte, error) { return os.ReadFile(d.Path(name)) }

// SetKill installs a fault hook invoked at Write's "object.create",
// "object.torn", "object.sync", "object.rename" and "object.durable"
// points; the chaos tests arm it with faults.Killer.
func (d *Dir) SetKill(fn func(point string)) { d.kill.Store(&fn) }

func (d *Dir) hit(point string) {
	if fn := d.kill.Load(); fn != nil && *fn != nil {
		(*fn)(point)
	}
}

// piece is the most one write(2) carries: on ext4 one write of 1 MiB or
// more into a fresh file can cost 17× the kernel CPU of the same bytes in
// pieces (BenchmarkDirWrite; DESIGN.md "Commit behind the compute").
const piece = 256 << 10

// Write makes the concatenation of pieces (one at least) the durable
// content of name; the rename is the atomic commit point. Pieces let a
// caller frame a payload without copying it. A file that already holds
// exactly those bytes is kept, but the directory is still fsynced: the
// process that renamed it may have died before its own, and what the
// caller records next must not name an entry a power cut can take back. A
// file with other bytes (damage) is replaced.
func (d *Dir) Write(name string, pieces ...[]byte) error {
	final := d.Path(name)
	if existing, err := os.ReadFile(final); err == nil && holds(existing, pieces) {
		if err := syncDir(d.path); err != nil {
			return err
		}
		d.hit("object.durable")
		return nil
	}
	d.hit("object.create")
	tmp, err := os.CreateTemp(d.path, tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("cas: creating temp file: %w", err)
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	// The tear window sits at the half mark of the last piece, the
	// payload; pieces only bound one write.
	k, last := len(pieces)-1, pieces[len(pieces)-1]
	parts := append(pieces[:k:k], last[:len(last)/2], last[len(last)/2:])
	for i, part := range parts {
		if i == len(parts)-1 {
			d.hit("object.torn")
		}
		for len(part) > 0 {
			n := min(len(part), piece)
			if _, err := tmp.Write(part[:n]); err != nil {
				return fmt.Errorf("cas: writing %s: %w", name, err)
			}
			part = part[n:]
		}
	}
	d.hit("object.sync")
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("cas: fsync %s: %w", name, err)
	}
	tmpName := tmp.Name()
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("cas: closing %s: %w", name, err)
	}
	tmp = nil
	d.hit("object.rename")
	if err := os.Rename(tmpName, final); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("cas: committing %s: %w", name, err)
	}
	if err := syncDir(d.path); err != nil {
		return err
	}
	d.hit("object.durable")
	return nil
}

// holds reports whether data is the concatenation of pieces.
func holds(data []byte, pieces [][]byte) bool {
	for _, p := range pieces {
		if !bytes.HasPrefix(data, p) {
			return false
		}
		data = data[len(p):]
	}
	return len(data) == 0
}

// Names returns the published names, sorted.
func (d *Dir) Names() ([]string, error) {
	entries, err := os.ReadDir(d.path)
	var names []string
	for _, e := range entries {
		if e.Type().IsRegular() && !strings.HasPrefix(e.Name(), tmpPrefix) {
			names = append(names, e.Name())
		}
	}
	return names, err
}

// syncDir fsyncs a directory so a completed rename survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("cas: opening %s for fsync: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("cas: fsync %s: %w", dir, err)
	}
	return nil
}

// DiskBackend is the Backend over a Dir of stored forms, one file per
// digest, the bytes the wire ships. It keeps no index — HasBlob is a stat,
// Digests a listing — and, as a VerifiedReader, checks each read once.
type DiskBackend struct {
	*Dir
}

// OpenDisk opens (creating it if needed) a DiskBackend in a directory.
func OpenDisk(path string) (*DiskBackend, error) {
	d, err := OpenDir(path)
	if err != nil {
		return nil, err
	}
	return &DiskBackend{d}, nil
}

// PutBlob implements Backend; reads count the logical size.
func (b *DiskBackend) PutBlob(digest string, comp []byte, _ int64) error {
	return b.Write(digest, comp)
}

// PutRaw stores a payload whose digest the caller has checked in its raw
// stored form — the marker, then the payload, written as two pieces, so
// the payload is neither deflated nor copied. A later Put of the same bytes
// finds it stored.
func (b *DiskBackend) PutRaw(digest string, payload []byte) error {
	return b.Write(digest, []byte{blobRaw}, payload)
}

func (b *DiskBackend) read(digest string) ([]byte, error) {
	comp, err := b.Read(digest)
	if os.IsNotExist(err) {
		return nil, &NotFoundError{Digest: digest}
	}
	return comp, err
}

// GetBlob implements Backend with the logical size VerifyBlob counts. A
// file that fails the check comes back as it is, with size 0, for the
// caller's own check to name.
func (b *DiskBackend) GetBlob(digest string) ([]byte, int64, error) {
	comp, err := b.read(digest)
	if err != nil {
		return nil, 0, err
	}
	logical, _ := VerifyBlob(digest, comp)
	return comp, logical, nil
}

// ReadVerified implements VerifiedReader: the file, checked once.
func (b *DiskBackend) ReadVerified(digest string, keep bool) ([]byte, int64, error) {
	comp, err := b.read(digest)
	if err != nil {
		return nil, 0, err
	}
	return checkBlob(digest, comp, keep, runtime.GOMAXPROCS(0))
}

// HasBlob implements Backend.
func (b *DiskBackend) HasBlob(digest string) bool {
	_, err := os.Stat(b.Path(digest))
	return err == nil
}

// DeleteBlob implements Backend.
func (b *DiskBackend) DeleteBlob(digest string) { os.Remove(b.Path(digest)) }

// Digests implements Backend; an unlistable directory lists what it can.
func (b *DiskBackend) Digests() []string {
	names, _ := b.Names()
	return names
}
