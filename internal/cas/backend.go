package cas

// Backend is the raw blob storage beneath a Store: digest → compressed
// bytes plus the logical (uncompressed) size. Splitting storage from the
// Store's compress/verify logic lets deployments swap media (memory today,
// disk or object storage tomorrow) and lets tests inject faulty backends —
// the fault injector in internal/faults wraps a Backend to simulate bit
// rot, transient I/O errors, and latency without touching the fixity
// machinery above it.
//
// Implementations must be safe for concurrent use.
type Backend interface {
	// PutBlob stores (or overwrites) the compressed bytes for a digest.
	// It keeps no reference to comp: callers reuse the slice.
	PutBlob(digest string, comp []byte, logical int64) error
	// GetBlob returns the compressed bytes and logical size, or an error
	// wrapping ErrNotFound when the digest is absent.
	GetBlob(digest string) (comp []byte, logical int64, err error)
	// HasBlob reports whether the digest is stored.
	HasBlob(digest string) bool
	// DeleteBlob removes a blob; deleting an absent digest is a no-op.
	DeleteBlob(digest string)
	// Digests returns the sorted list of stored digests.
	Digests() []string
}

// VerifiedReader is the optional backend capability of reading a blob
// already fixity-checked. ReadVerified makes exactly DecodeBlob's checks on
// the stored bytes it reads and returns what they found: with keep, the
// payload; always, the logical size the check counted, whatever any header
// claimed. A missing blob is an error wrapping ErrNotFound, a failed check
// one wrapping ErrCorrupt.
//
// A backend that must check its reads anyway — the cluster client, to
// choose a healthy replica — implements it, and a Store over it trusts that
// check and makes none of its own. A wrapper that does not forward it gets
// the Store's GetBlob-and-check path: correct, but checked twice.
type VerifiedReader interface {
	ReadVerified(digest string, keep bool) (payload []byte, logical int64, err error)
}

// ListBackend is the optional backend capability of moving a list of
// blobs per round trip: the cluster client's, which asks each node once
// for a whole list instead of once per blob. A Store over it hashes a
// package's payloads, probes them in one call, and encodes and writes the
// missing blobs a batch per call (Store.PutMany); it takes an audit's
// verdicts from it without reading a blob (Store.VerifyMany).
type ListBackend interface {
	// HasMany reports, for each digest, whether the backend holds a copy
	// that passes its check, asking as cheaply as it can: a false answer
	// costs only a write of a blob that may be there already.
	HasMany(digests []string) []bool
	// PutMany stores each stored form under its digest, as PutBlob would,
	// and returns each blob's error; the logical sizes are the backend's
	// to count.
	PutMany(digests []string, comps [][]byte) []error
	// VerifyMany returns, for each digest, what Store.Verify would: the
	// logical size the check counted, or the error — wrapping ErrNotFound
	// or ErrCorrupt when that is what was found.
	VerifyMany(digests []string) (logical []int64, errs []error)
}

// Corrupter is the optional backend capability of flipping stored bits —
// the fault-injection hook disaster-recovery tests drive.
type Corrupter interface {
	CorruptBlob(digest string) error
}
