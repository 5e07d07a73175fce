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

// Corrupter is the optional backend capability of flipping stored bits —
// the fault-injection hook disaster-recovery tests drive.
type Corrupter interface {
	CorruptBlob(digest string) error
}
