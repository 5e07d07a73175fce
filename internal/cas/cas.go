// Package cas implements the content-addressed store underneath the
// preservation archive: blobs are keyed by the SHA-256 of their content,
// stored deflate-compressed, deduplicated, and verifiable at any time.
// Content addressing gives the archive its two load-bearing properties:
// fixity checks are intrinsic (a blob that decompresses to the wrong hash
// is corrupt by definition), and identical payloads archived by different
// packages are stored once.
//
// Storage is pluggable through the Backend interface; the Store layers
// compression and fixity verification on top. A Store holds one copy:
// second copies, fallback reads and healing belong to internal/cluster,
// which is itself a Backend.
package cas

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
)

// ErrNotFound is returned when a digest is not in the store.
var ErrNotFound = errors.New("cas: blob not found")

// ErrCorrupt is returned when a blob fails its fixity check.
var ErrCorrupt = errors.New("cas: blob corrupt")

// NotFoundError carries the missing digest; it wraps ErrNotFound so
// errors.Is keeps working.
type NotFoundError struct {
	Digest string
}

func (e *NotFoundError) Error() string { return fmt.Sprintf("cas: blob not found: %s", e.Digest) }

// Unwrap ties the typed error to the ErrNotFound sentinel.
func (e *NotFoundError) Unwrap() error { return ErrNotFound }

// CorruptError reports a fixity failure with enough detail for resilience
// policies and cluster read-repair to branch on: the digest that was
// requested (Digest), what the stored bytes actually hash to (Actual,
// empty when the blob would not even decompress), and the underlying decode
// error, if any. It wraps ErrCorrupt, so errors.Is(err, ErrCorrupt) holds.
type CorruptError struct {
	// Digest is the content address that was requested.
	Digest string
	// Actual is the digest the decompressed bytes hash to; empty when
	// decompression itself failed.
	Actual string
	// Cause is the decompression error, when that is what failed.
	Cause error
}

func (e *CorruptError) Error() string {
	switch {
	case e.Cause != nil:
		return fmt.Sprintf("cas: blob corrupt: %s: %v", e.Digest, e.Cause)
	case e.Actual != "":
		return fmt.Sprintf("cas: blob corrupt: %s: content hashes to %s", e.Digest, e.Actual)
	default:
		return fmt.Sprintf("cas: blob corrupt: %s", e.Digest)
	}
}

// Unwrap ties the typed error to the ErrCorrupt sentinel (and the decode
// cause, when present).
func (e *CorruptError) Unwrap() []error {
	if e.Cause != nil {
		return []error{ErrCorrupt, e.Cause}
	}
	return []error{ErrCorrupt}
}

// Digest computes the content address of a payload.
func Digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// IsDigest reports whether s has the form Digest returns: 64 lowercase hex
// digits, and so a plain file name.
func IsDigest(s string) bool {
	return len(s) == 2*sha256.Size && strings.Trim(s, "0123456789abcdef") == ""
}

// Store is a content-addressed blob store over a pluggable Backend, safe
// for concurrent use.
type Store struct {
	backend Backend
}

// NewStore returns an empty store over an in-memory backend.
func NewStore() *Store { return NewStoreWith(NewShardedBackend(0)) }

// NewStoreWith returns a store over the given backend.
func NewStoreWith(b Backend) *Store { return &Store{backend: b} }

// Stored blobs are framed with a one-byte encoding marker so the store
// can skip deflate for payloads it cannot shrink (already-compressed or
// high-entropy banks) instead of paying the CPU twice — once to inflate
// the size, once to undo it on every read.
const (
	blobRaw     byte = 0 // payload stored verbatim
	blobDeflate byte = 1 // payload deflate-compressed
)

// minCompressSize is the payload size below which compression is not even
// attempted: the deflate header overhead dominates and the marker-framed
// raw form is already optimal.
const minCompressSize = 128

// deflaterPool recycles encoders: each holds a 128 KiB match table, the
// sequences of a block and the scratch a flat stored form is written into.
var deflaterPool = sync.Pool{New: func() any { return newDeflater() }}

// encode returns a payload's stored form: the chunked form at and above
// the chunking threshold, fanned over workers, otherwise the marker-framed
// one.
func encode(data []byte, workers int) []byte {
	if len(data) >= chunkThreshold {
		return encodeChunked(data, workers)
	}
	e := deflaterPool.Get().(*deflater)
	defer deflaterPool.Put(e)
	return e.encodeBlob(data)
}

// Put stores a payload and returns its digest. Duplicate content is a
// no-op returning the same digest — detected before any compression work
// is spent. Payloads at or above the chunking threshold take the chunked
// parallel path across GOMAXPROCS workers (see PutWorkers); the stored
// bytes do not depend on the core count.
func (s *Store) Put(data []byte) (string, error) {
	return s.PutWorkers(data, runtime.GOMAXPROCS(0))
}

// Get retrieves and fixity-checks a payload. A missing blob is ErrNotFound,
// unwrapped; any other failure, the backend's or the check's, comes back
// under "cas: reading <digest>".
func (s *Store) Get(digest string) ([]byte, error) {
	data, _, err := s.read(digest, true)
	if err != nil && !errors.Is(err, ErrNotFound) {
		return nil, fmt.Errorf("cas: reading %s: %w", digest, err)
	}
	return data, err
}

// Verify is Get for an audit: the verdict and the payload's logical
// length as the check counted it, without the payload.
func (s *Store) Verify(digest string) (logical int64, err error) {
	_, logical, err = s.read(digest, false)
	return logical, err
}

// read is the one check behind Get and Verify: the backend's own when it is
// a VerifiedReader, otherwise the fixity kernel over the stored bytes.
func (s *Store) read(digest string, keep bool) ([]byte, int64, error) {
	if vr, ok := s.backend.(VerifiedReader); ok {
		return vr.ReadVerified(digest, keep)
	}
	comp, _, err := s.backend.GetBlob(digest)
	if err != nil {
		return nil, 0, err
	}
	return checkBlob(digest, comp, keep, runtime.GOMAXPROCS(0))
}

// Corrupt flips a byte inside a stored blob — a fault-injection hook for
// testing fixity detection (bit rot on archival media). It requires a
// backend that supports corruption (ShardedBackend does).
func (s *Store) Corrupt(digest string) error {
	c, ok := s.backend.(Corrupter)
	if !ok {
		return fmt.Errorf("cas: backend %T does not support fault injection", s.backend)
	}
	return c.CorruptBlob(digest)
}

// LoadUnverified loads the blob stream of an archive image an earlier
// build wrote — (digestLen, digest, logicalLen, compLen, stored bytes)
// records — into an in-memory store, without checking any blob: the
// reader's audit names damage rather than refusing it. Length fields only
// slice the stream, so none reserves memory.
func LoadUnverified(stream []byte) (*Store, error) {
	s := NewStore()
	for len(stream) > 0 {
		if len(stream) < 2 {
			return nil, fmt.Errorf("cas: loading: %w", io.ErrUnexpectedEOF)
		}
		dl := int(binary.LittleEndian.Uint16(stream))
		if dl == 0 || dl > 128 {
			return nil, fmt.Errorf("cas: loading: implausible digest length %d", dl)
		}
		hdr := 2 + dl + 16
		if len(stream) < hdr {
			return nil, fmt.Errorf("cas: loading: %w", io.ErrUnexpectedEOF)
		}
		digest := string(stream[2 : 2+dl])
		logical := int64(binary.LittleEndian.Uint64(stream[2+dl:]))
		compLen := binary.LittleEndian.Uint64(stream[2+dl+8:])
		if stream = stream[hdr:]; compLen > uint64(len(stream)) {
			return nil, fmt.Errorf("cas: loading: %w", io.ErrUnexpectedEOF)
		}
		if err := s.backend.PutBlob(digest, stream[:compLen], logical); err != nil {
			return nil, fmt.Errorf("cas: loading %s: %w", digest, err)
		}
		stream = stream[compLen:]
	}
	return s, nil
}
