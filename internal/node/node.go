// Package node implements one storage node of the preservation network:
// a cas.Backend served over a small HTTP wire protocol (streaming blob
// put/get, stat, node-local fixity verification, and the digest listing
// anti-entropy sweeps read).
//
// DPHEP frames sustainable preservation as a global, multi-site effort —
// no single machine is the archive. A node is therefore deliberately dumb:
// it stores marker-framed blobs exactly as the local CAS would, verifies
// fixity at its own trust boundary (a corrupt-on-the-wire write is refused
// with 422 before it can ever be served), and leaves placement, quorum,
// and repair to the cluster client above it. Every handler honours the
// request context, so a dying client or a draining server never wedges a
// node.
//
// Wire protocol. Every blob body is the marker-framed stored form and
// nothing travels beside it: each end counts a blob's logical size with
// its own check of the body.
//
//	GET    /v1/digests         → 200 sorted JSON list of every stored digest
//	PUT    /v1/blobs/{digest}  → 204; 422 when the body fails fixity
//	GET    /v1/blobs/{digest}  → 200 body; 404 when absent
//	HEAD   /v1/blobs/{digest}  → 200/404
//	DELETE /v1/blobs/{digest}  → 204 (idempotent)
//	GET    /v1/verify/{digest} → 200 {"ok":..}, the fixity kernel's verdict
//	                             on the stored bytes; 404 when absent
package node

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"daspos/internal/cas"
	"daspos/internal/daemon"
)

// maxBlobBytes bounds one blob body; a put larger than this is rejected
// rather than ballooning node memory.
const maxBlobBytes = 1 << 30

// presizeCap bounds the buffer ReadBody reserves on a Content-Length's
// word. The blobs of a tier package are a few MiB stored, so they fit.
const presizeCap = 4 << 20

// ReadBody reads a message body to EOF like io.ReadAll, but starts from a
// buffer sized by the declared Content-Length, so a body of known size is
// read without regrowing and recopying. The declaration is trusted only up
// to presizeCap: past it, and when the length is unknown (negative, as for
// chunked transfer-encoding), the buffer grows as bytes actually arrive —
// a lying header reserves no memory.
func ReadBody(r io.Reader, contentLength int64) ([]byte, error) {
	// bytes.MinRead to spare, so the read that reports EOF does not grow it.
	size := min(max(contentLength, 0), presizeCap) + bytes.MinRead
	buf := bytes.NewBuffer(make([]byte, 0, size))
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// Node is one storage node: a raw blob backend plus the HTTP surface the
// cluster speaks to it.
type Node struct {
	id      string
	backend cas.Backend

	// proven maps a digest to the SHA-256 of the stored bytes that last
	// passed the fixity kernel here, at PUT or on a verify's full check.
	// Stored bytes that hash to it are bytes the kernel passed, so a verify
	// that finds them answers with the kernel's verdict without running it.
	mu     sync.Mutex
	proven map[string][sha256.Size]byte
	// kernelRuns counts the verifies that ran the full kernel.
	kernelRuns atomic.Int64
}

// New returns a node with the given identity over the given backend; a nil
// backend gets a fresh sharded in-memory one.
func New(id string, backend cas.Backend) *Node {
	if backend == nil {
		backend = cas.NewShardedBackend(0)
	}
	return &Node{id: id, backend: backend, proven: make(map[string][sha256.Size]byte)}
}

// prove records sum as the hash of bytes stored under digest that have
// just passed the fixity kernel.
func (n *Node) prove(digest string, sum [sha256.Size]byte) {
	n.mu.Lock()
	n.proven[digest] = sum
	n.mu.Unlock()
}

// proved reports whether sum is the recorded hash of digest's proven bytes.
func (n *Node) proved(digest string, sum [sha256.Size]byte) bool {
	n.mu.Lock()
	rec, ok := n.proven[digest]
	n.mu.Unlock()
	return ok && rec == sum
}

// forget drops digest's record, once its blob is deleted or found absent.
func (n *Node) forget(digest string) {
	n.mu.Lock()
	delete(n.proven, digest)
	n.mu.Unlock()
}

// ID returns the node's identity — the name the placement ring hashes.
func (n *Node) ID() string { return n.id }

// Backend exposes the underlying blob storage (operational tooling and
// chaos tests reach through it).
func (n *Node) Backend() cas.Backend { return n.backend }

// Blobs returns the number of stored blobs.
func (n *Node) Blobs() int { return len(n.backend.Digests()) }

// Corrupt flips a byte of a stored blob — the bit-rot hook disaster drills
// drive against individual replicas.
func (n *Node) Corrupt(digest string) error {
	c, ok := n.backend.(cas.Corrupter)
	if !ok {
		return fmt.Errorf("node: backend %T does not support fault injection", n.backend)
	}
	return c.CorruptBlob(digest)
}

// VerifyResult is the verify-endpoint document: the fixity kernel's
// verdict on one stored blob, reached where the bytes live so an
// anti-entropy sweep does not pay blob transfer to learn a replica is
// healthy.
type VerifyResult struct {
	OK bool `json:"ok"`
}

// Handler returns the node's HTTP API.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/digests", n.handleDigests)
	mux.HandleFunc("PUT /v1/blobs/{digest}", n.handlePut)
	mux.HandleFunc("GET /v1/blobs/{digest}", n.handleGet)
	mux.HandleFunc("DELETE /v1/blobs/{digest}", n.handleDelete)
	mux.HandleFunc("GET /v1/verify/{digest}", n.handleVerify)
	return mux
}

// validDigest bounds digest path elements to plausible lowercase-hex
// content addresses (the same 128-char ceiling cas.LoadUnverified enforces
// on an image's blob stream).
func validDigest(d string) bool {
	if len(d) == 0 || len(d) > 128 {
		return false
	}
	for i := 0; i < len(d); i++ {
		c := d[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// handleDigests lists every stored digest, sorted: one listing is what an
// anti-entropy sweep reads of a member.
func (n *Node) handleDigests(w http.ResponseWriter, r *http.Request) {
	ds := n.backend.Digests()
	if ds == nil {
		ds = []string{} // an empty node lists [], not null
	}
	daemon.WriteJSON(w, http.StatusOK, ds)
}

// handlePut ingests one blob. The body is the marker-framed stored form;
// the node fixity-checks it (cas.VerifyBlob: every check, no payload
// materialised) before acknowledging, so a payload corrupted on the wire
// (or by a lying client) is refused with 422 instead of poisoning the
// replica set. The blob is stored with the logical size that check
// counted, and the hash of the bytes it passed is recorded for verify.
func (n *Node) handlePut(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	if !validDigest(digest) {
		http.Error(w, "node: invalid digest", http.StatusBadRequest)
		return
	}
	comp, err := ReadBody(http.MaxBytesReader(w, r.Body, maxBlobBytes), r.ContentLength)
	if err != nil {
		http.Error(w, "node: reading body: "+err.Error(), http.StatusBadRequest)
		return
	}
	logical, derr := cas.VerifyBlob(digest, comp)
	if derr != nil {
		http.Error(w, "node: refused: "+derr.Error(), http.StatusUnprocessableEntity)
		return
	}
	if err := n.backend.PutBlob(digest, comp, logical); err != nil {
		http.Error(w, "node: storing: "+err.Error(), http.StatusInternalServerError)
		return
	}
	n.prove(digest, sha256.Sum256(comp))
	w.WriteHeader(http.StatusNoContent)
}

// handleGet streams one stored blob (HEAD is the stat form: headers only).
// The node serves its bytes as they are — fixity is judged by the caller,
// so a corrupt replica is visible to read-repair instead of masked.
func (n *Node) handleGet(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	if !validDigest(digest) {
		http.Error(w, "node: invalid digest", http.StatusBadRequest)
		return
	}
	comp, _, err := n.backend.GetBlob(digest)
	if err != nil {
		if errors.Is(err, cas.ErrNotFound) {
			http.Error(w, "node: not found: "+digest, http.StatusNotFound)
			return
		}
		http.Error(w, "node: reading: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(comp)))
	if r.Method == http.MethodHead {
		return
	}
	_, _ = w.Write(comp)
}

func (n *Node) handleDelete(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	if !validDigest(digest) {
		http.Error(w, "node: invalid digest", http.StatusBadRequest)
		return
	}
	n.backend.DeleteBlob(digest)
	n.forget(digest)
	w.WriteHeader(http.StatusNoContent)
}

// handleVerify answers with the fixity kernel's verdict on the stored
// bytes, shipping only the verdict. It hashes the bytes it reads (one
// SHA-256, no inflate): when that equals the hash recorded for bytes the
// kernel passed here, the bytes are those bytes (up to a SHA-256
// collision) and the verdict is ok. In every other case — no record, bytes
// rotted or rewritten behind the node, another valid stored form of the
// payload — it runs the full kernel (inflate and rehash) and records the
// hash of bytes that pass.
func (n *Node) handleVerify(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	if !validDigest(digest) {
		http.Error(w, "node: invalid digest", http.StatusBadRequest)
		return
	}
	comp, _, err := n.backend.GetBlob(digest)
	if err != nil {
		if errors.Is(err, cas.ErrNotFound) {
			n.forget(digest)
			http.Error(w, "node: not found: "+digest, http.StatusNotFound)
			return
		}
		http.Error(w, "node: reading: "+err.Error(), http.StatusInternalServerError)
		return
	}
	sum := sha256.Sum256(comp)
	if n.proved(digest, sum) {
		daemon.WriteJSON(w, http.StatusOK, VerifyResult{OK: true})
		return
	}
	n.kernelRuns.Add(1)
	_, derr := cas.VerifyBlob(digest, comp)
	if derr == nil {
		n.prove(digest, sum)
	}
	daemon.WriteJSON(w, http.StatusOK, VerifyResult{OK: derr == nil})
}
