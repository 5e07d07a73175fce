package cas

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
)

// ShardedBackend is the in-memory Backend: blobs striped across N
// independently locked shards. One lock serializes every Put; under the
// parallel ingest paths (streaming workers, fixity sweeps, node PUTs) that
// lock is the bottleneck. Striping turns it into N uncontended locks —
// writers touching different shards never wait on each other, and the
// store's semantics are unchanged because a digest always maps to the same
// shard.
type ShardedBackend struct {
	shards []shard
}

// shard is one stripe: a lock and the blobs it guards.
type shard struct {
	mu    sync.RWMutex
	blobs map[string]blob
}

// blob is one stored entry: the marker-framed bytes and the logical size.
type blob struct {
	comp    []byte
	logical int64
}

// defaultShards is the shard count NewShardedBackend uses when asked for
// an automatic size: enough stripes that GOMAXPROCS writers rarely
// collide, rounded up to a power of two so the selector is a mask.
func defaultShards() int {
	n := 1
	for n < 4*runtime.GOMAXPROCS(0) {
		n <<= 1
	}
	return n
}

// NewShardedBackend returns an empty backend striped across n shards.
// n < 1 selects a count derived from GOMAXPROCS; n = 1 is a single-lock
// store. Counts that are not powers of two are rounded up so shard
// selection stays a bit mask.
func NewShardedBackend(n int) *ShardedBackend {
	if n < 1 {
		n = defaultShards()
	}
	pow := 1
	for pow < n {
		pow <<= 1
	}
	shards := make([]shard, pow)
	for i := range shards {
		shards[i].blobs = make(map[string]blob)
	}
	return &ShardedBackend{shards: shards}
}

// shard maps a digest to its stripe with an FNV-1a hash of the digest
// string. Hashing (rather than slicing leading hex characters) keeps the
// spread uniform for any digest scheme a future backend might store.
func (s *ShardedBackend) shard(digest string) *shard {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(digest); i++ {
		h ^= uint32(digest[i])
		h *= prime32
	}
	return &s.shards[h&uint32(len(s.shards)-1)]
}

// PutBlob implements Backend. The bytes are copied, so callers may reuse
// the slice.
func (s *ShardedBackend) PutBlob(digest string, comp []byte, logical int64) error {
	b := blob{comp: append([]byte(nil), comp...), logical: logical}
	sh := s.shard(digest)
	sh.mu.Lock()
	sh.blobs[digest] = b
	sh.mu.Unlock()
	return nil
}

// GetBlob implements Backend. The returned slice is the stored one; the
// Store treats it as read-only (CorruptBlob mutates it deliberately).
func (s *ShardedBackend) GetBlob(digest string) ([]byte, int64, error) {
	sh := s.shard(digest)
	sh.mu.RLock()
	b, ok := sh.blobs[digest]
	sh.mu.RUnlock()
	if !ok {
		return nil, 0, &NotFoundError{Digest: digest}
	}
	return b.comp, b.logical, nil
}

// HasBlob implements Backend.
func (s *ShardedBackend) HasBlob(digest string) bool {
	sh := s.shard(digest)
	sh.mu.RLock()
	_, ok := sh.blobs[digest]
	sh.mu.RUnlock()
	return ok
}

// DeleteBlob implements Backend.
func (s *ShardedBackend) DeleteBlob(digest string) {
	sh := s.shard(digest)
	sh.mu.Lock()
	delete(sh.blobs, digest)
	sh.mu.Unlock()
}

// Digests implements Backend: the union of all shards, sorted, so audit
// reports and node listings stay deterministic regardless of how blobs
// landed across stripes.
func (s *ShardedBackend) Digests() []string {
	var out []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for d := range sh.blobs {
			out = append(out, d)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// CorruptBlob implements Corrupter: it flips a byte of the stored blob —
// the bit-rot hook behind Store.Corrupt.
func (s *ShardedBackend) CorruptBlob(digest string) error {
	sh := s.shard(digest)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	b, ok := sh.blobs[digest]
	if !ok {
		return &NotFoundError{Digest: digest}
	}
	if len(b.comp) == 0 {
		return fmt.Errorf("cas: blob %s empty", digest)
	}
	b.comp[len(b.comp)/2] ^= 0xFF
	return nil
}
