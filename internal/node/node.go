// Package node implements one storage node of the preservation network:
// a cas.Backend served over a small HTTP wire protocol (streamed blob
// lists in, blobs out, stat, node-local fixity verdicts, and the digest
// listing anti-entropy sweeps read).
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
// Wire protocol. Every blob travels in the marker-framed stored form and
// nothing travels beside it: each end counts a blob's logical size with
// its own check of the bytes. Writes and verdicts take lists, so a client
// pays one round trip per node for a whole package or a whole pass.
//
//	GET    /v1/digests         → 200 sorted JSON list of every stored digest
//	POST   /v1/blobs           → 200 JSON list of PutResult, one per frame
//	                             of the body (AppendFrameHeader): 204
//	                             stored, 400 invalid digest, 422 failed
//	                             fixity; 400 for the request when the
//	                             framing breaks
//	GET    /v1/blobs/{digest}  → 200 body; 404 when absent
//	HEAD   /v1/blobs/{digest}  → 200/404
//	DELETE /v1/blobs/{digest}  → 204 (idempotent)
//	POST   /v1/verify          → 200 JSON list of VerifyResult, one per
//	                             digest of the JSON list body, in order
package node

import (
	"bufio"
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

// maxBlobBytes bounds the body of one blob list; a put larger than this is
// rejected rather than ballooning node memory.
const maxBlobBytes = 1 << 30

// maxDigestListBytes bounds the body of one verify request: a JSON list of
// some two hundred thousand digests.
const maxDigestListBytes = 16 << 20

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

	// proven maps a digest to the proof of the stored bytes that last
	// passed the fixity kernel here, at PUT or on a verify's full check.
	// Stored bytes that hash to it are bytes the kernel passed, so a verify
	// that finds them answers with the kernel's verdict without running it.
	mu     sync.Mutex
	proven map[string]proof
	// kernelRuns counts the verifies that ran the full kernel.
	kernelRuns atomic.Int64
}

// New returns a node with the given identity over the given backend; a nil
// backend gets a fresh sharded in-memory one.
func New(id string, backend cas.Backend) *Node {
	if backend == nil {
		backend = cas.NewShardedBackend(0)
	}
	return &Node{id: id, backend: backend, proven: make(map[string]proof)}
}

// proof is what the fixity kernel found of stored bytes it passed: their
// SHA-256 and the logical size it counted.
type proof struct {
	sum     [sha256.Size]byte
	logical int64
}

// prove records p for bytes stored under digest that have just passed the
// fixity kernel.
func (n *Node) prove(digest string, p proof) {
	n.mu.Lock()
	n.proven[digest] = p
	n.mu.Unlock()
}

// proved reports whether sum is the recorded hash of digest's proven
// bytes, and if so the logical size the kernel counted of them.
func (n *Node) proved(digest string, sum [sha256.Size]byte) (int64, bool) {
	n.mu.Lock()
	rec, ok := n.proven[digest]
	n.mu.Unlock()
	return rec.logical, ok && rec.sum == sum
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

// VerifyResult is one verdict of the verify endpoint: the fixity kernel's
// verdict on one stored blob, reached where the bytes live so an
// anti-entropy sweep or a fleet audit does not pay blob transfer to learn a
// replica is healthy. Logical is the payload size the passing check
// counted; Missing says the node holds no such blob.
type VerifyResult struct {
	OK      bool  `json:"ok"`
	Logical int64 `json:"logical,omitempty"`
	Missing bool  `json:"missing,omitempty"`
}

// PutResult is the node's answer to one frame of a blob list: 204 when the
// blob passed the fixity gate and is stored, 400 for an invalid digest,
// 422 when the bytes fail fixity, 500 when storing failed.
type PutResult struct {
	Status int    `json:"status"`
	Error  string `json:"error,omitempty"`
}

// Handler returns the node's HTTP API.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/digests", n.handleDigests)
	mux.HandleFunc("POST /v1/blobs", n.handlePut)
	mux.HandleFunc("GET /v1/blobs/{digest}", n.handleGet)
	mux.HandleFunc("DELETE /v1/blobs/{digest}", n.handleDelete)
	mux.HandleFunc("POST /v1/verify", n.handleVerify)
	return mux
}

// validDigest bounds digests to plausible lowercase-hex content addresses
// (the same 128-char ceiling cas.LoadUnverified enforces on an image's
// blob stream).
func validDigest(d string) bool {
	if len(d) == 0 || len(d) > maxDigestLen {
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

// handlePut ingests a list of blobs, one frame at a time as the body
// streams in: only the frame being checked is in memory. Each blob is
// fixity-checked (cas.VerifyBlob: every check, no payload materialised)
// before it is acknowledged, so a payload corrupted on the wire (or by a
// lying client) is refused with 422 instead of poisoning the replica set,
// and the blobs beside it are stored all the same. A blob is stored with
// the logical size that check counted, and the hash of the bytes it passed
// is recorded for verify. Framing that breaks fails the rest of the list
// with 400; the blobs before it stay stored.
func (n *Node) handlePut(w http.ResponseWriter, r *http.Request) {
	body := bufio.NewReader(http.MaxBytesReader(w, r.Body, maxBlobBytes))
	var (
		results []PutResult
		buf     []byte // every backend copies what PutBlob stores
	)
	for {
		digest, comp, err := readFrame(body, buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			http.Error(w, "node: reading blob list: "+err.Error(), http.StatusBadRequest)
			return
		}
		results = append(results, n.put(digest, comp))
		buf = comp
	}
	if results == nil {
		results = []PutResult{}
	}
	daemon.WriteJSON(w, http.StatusOK, results)
}

// put is the PUT gate for one blob of a list.
func (n *Node) put(digest string, comp []byte) PutResult {
	if !validDigest(digest) {
		return PutResult{Status: http.StatusBadRequest, Error: "node: invalid digest"}
	}
	logical, err := cas.VerifyBlob(digest, comp)
	if err != nil {
		return PutResult{Status: http.StatusUnprocessableEntity, Error: "node: refused: " + err.Error()}
	}
	if err := n.backend.PutBlob(digest, comp, logical); err != nil {
		return PutResult{Status: http.StatusInternalServerError, Error: "node: storing: " + err.Error()}
	}
	n.prove(digest, proof{sha256.Sum256(comp), logical})
	return PutResult{Status: http.StatusNoContent}
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

// handleVerify answers a list of digests with one verdict each, in order,
// shipping only the verdicts. A list with an invalid digest is refused
// whole with 400; a backend that fails a read fails the request with 500,
// which the client retries.
func (n *Node) handleVerify(w http.ResponseWriter, r *http.Request) {
	digests, err := readDigests(http.MaxBytesReader(w, r.Body, maxDigestListBytes))
	if err != nil {
		http.Error(w, "node: reading digest list: "+err.Error(), http.StatusBadRequest)
		return
	}
	out := make([]VerifyResult, len(digests))
	for i, d := range digests {
		if out[i], err = n.verify(d); err != nil {
			http.Error(w, "node: reading: "+err.Error(), http.StatusInternalServerError)
			return
		}
	}
	daemon.WriteJSON(w, http.StatusOK, out)
}

// verify is the fixity kernel's verdict on one stored blob. It hashes the
// bytes it reads (one SHA-256, no inflate): when that equals the hash
// recorded for bytes the kernel passed here, the bytes are those bytes (up
// to a SHA-256 collision) and the verdict is ok, with the size that check
// counted. In every other case — no record, bytes rotted or rewritten
// behind the node, another valid stored form of the payload — it runs the
// full kernel (inflate and rehash) and records the hash of bytes that
// pass.
func (n *Node) verify(digest string) (VerifyResult, error) {
	comp, _, err := n.backend.GetBlob(digest)
	if err != nil {
		if errors.Is(err, cas.ErrNotFound) {
			n.forget(digest)
			return VerifyResult{Missing: true}, nil
		}
		return VerifyResult{}, err
	}
	sum := sha256.Sum256(comp)
	if logical, ok := n.proved(digest, sum); ok {
		return VerifyResult{OK: true, Logical: logical}, nil
	}
	n.kernelRuns.Add(1)
	logical, derr := cas.VerifyBlob(digest, comp)
	if derr != nil {
		return VerifyResult{}, nil
	}
	n.prove(digest, proof{sum, logical})
	return VerifyResult{OK: true, Logical: logical}, nil
}
