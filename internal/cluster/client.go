package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"daspos/internal/cas"
	"daspos/internal/node"
	"daspos/internal/resilience"
)

// NodeInfo names one storage node: a stable identity (what the ring
// hashes — it must survive restarts and address changes) and its current
// base URL.
type NodeInfo struct {
	ID  string
	URL string
}

// Config tunes a Client. Zero fields get defaults. A put needs a majority
// of its replicas' acks, and each HTTP attempt is bounded by
// requestTimeout.
type Config struct {
	// Nodes is the initial membership.
	Nodes []NodeInfo
	// ReplicationFactor is how many nodes hold each blob. Values < 1
	// mean 3; capped at the member count during placement.
	ReplicationFactor int
	// Transport is the HTTP transport node traffic runs over — the hook
	// chaos tests inject network faults through. Nil means
	// http.DefaultTransport.
	Transport http.RoundTripper
	// Retry is the per-node-operation retry policy. A zero policy gets a
	// small capped-backoff schedule; transient faults (network blips,
	// 5xx storms) are retried, everything else fails fast.
	Retry resilience.Policy
	// Breaker tunes the per-node circuit breakers that keep a dead or
	// partitioned node from stalling every operation.
	Breaker resilience.BreakerConfig
}

// requestTimeout bounds each HTTP attempt when the retry policy sets no
// attempt timeout of its own.
const requestTimeout = 10 * time.Second

// DefaultRetryPolicy is the per-node-operation retry schedule: a few
// quick, capped, jittered attempts. Deterministic via the seed, like every
// resilience policy in the tree.
func DefaultRetryPolicy() resilience.Policy {
	return resilience.Policy{
		MaxAttempts: 3,
		BaseDelay:   2 * time.Millisecond,
		MaxDelay:    50 * time.Millisecond,
		Jitter:      0.2,
	}
}

// nodeConn is the client's view of one member: identity, address, and the
// circuit breaker guarding calls to it.
type nodeConn struct {
	id      string
	base    string
	breaker *resilience.Breaker
}

// Client places blobs across the cluster. It implements cas.Backend, so a
// cas.Store (and therefore a whole archive) can sit directly on top of the
// network: compression stays in the store, placement and quorum live here,
// and the nodes stay dumb. Every read is checked here, to choose a healthy
// replica; as a cas.VerifiedReader the client hands that check's result to
// the store, which then makes none of its own.
//
// The construction context bounds every operation issued through the
// cas.Backend interface (whose methods cannot take one); cancelling it
// renders the client inert.
type Client struct {
	ctx     context.Context
	httpc   *http.Client
	retry   resilience.Policy
	breaker resilience.BreakerConfig
	rf      int
	ring    *Ring

	mu    sync.RWMutex
	conns map[string]*nodeConn
}

var (
	_ cas.Backend        = (*Client)(nil)
	_ cas.VerifiedReader = (*Client)(nil)
)

// New returns a client over the given membership. The context is retained:
// it is the lifetime of every backend operation the client issues.
func New(ctx context.Context, cfg Config) (*Client, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: no nodes configured")
	}
	rf := cfg.ReplicationFactor
	if rf < 1 {
		rf = 3
	}
	retry := cfg.Retry
	if retry.MaxAttempts == 0 && retry.BaseDelay == 0 {
		retry = DefaultRetryPolicy()
	}
	if retry.AttemptTimeout <= 0 {
		retry.AttemptTimeout = requestTimeout
	}
	c := &Client{
		ctx:     ctx,
		httpc:   &http.Client{Transport: cfg.Transport},
		retry:   retry,
		breaker: cfg.Breaker,
		rf:      rf,
		ring:    NewRing(),
		conns:   make(map[string]*nodeConn),
	}
	for _, n := range cfg.Nodes {
		if err := c.addNode(n); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (c *Client) addNode(n NodeInfo) error {
	if n.ID == "" || n.URL == "" {
		return fmt.Errorf("cluster: node needs both ID and URL (got %+v)", n)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.conns[n.ID]; dup {
		return fmt.Errorf("cluster: duplicate node ID %q", n.ID)
	}
	c.conns[n.ID] = &nodeConn{id: n.ID, base: n.URL, breaker: resilience.NewBreaker(c.breaker)}
	c.ring.Add(n.ID)
	return nil
}

// AddNode joins a node to the ring. Placement shifts immediately; the next
// anti-entropy sweep moves the blobs (rebalancing onto the newcomer and,
// once replicas are healthy, trimming copies that no longer belong).
func (c *Client) AddNode(n NodeInfo) error { return c.addNode(n) }

// RemoveNode leaves a node from the ring. Digests it owned get new owner
// sets; the next sweep restores the replication factor on the survivors.
// Removing an unknown ID is a no-op.
func (c *Client) RemoveNode(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.conns, id)
	c.ring.Remove(id)
}

// Owners returns the digest's replica set under current membership, in
// preference order.
func (c *Client) Owners(digest string) []string {
	return c.ring.Owners(digest, c.rf)
}

// ownerConns resolves the replica set to live connections.
func (c *Client) ownerConns(digest string) []*nodeConn {
	ids := c.ring.Owners(digest, c.rf)
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*nodeConn, 0, len(ids))
	for _, id := range ids {
		if nc, ok := c.conns[id]; ok {
			out = append(out, nc)
		}
	}
	return out
}

// allConns snapshots every member connection, sorted by ID.
func (c *Client) allConns() []*nodeConn {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*nodeConn, 0, len(c.conns))
	for _, nc := range c.conns {
		out = append(out, nc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// callResult is one settled HTTP exchange with a node.
type callResult struct {
	status int
	body   []byte
}

// once performs a single HTTP exchange. Transport failures are transient
// (the resilience layer may retry them); responses — any status — settle
// the call.
func (c *Client) once(ctx context.Context, nc *nodeConn, method, path string, body []byte) (callResult, error) {
	u := nc.base + path
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return callResult{}, resilience.MarkPermanent(fmt.Errorf("cluster: building %s %s: %w", method, u, err))
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return callResult{}, resilience.MarkTransient(fmt.Errorf("cluster: node %s unreachable: %w", nc.id, err))
	}
	defer resp.Body.Close()
	size := resp.ContentLength
	if method == http.MethodHead {
		size = 0 // the length is the blob's; the body is empty
	}
	data, err := node.ReadBody(resp.Body, size)
	if err != nil {
		return callResult{}, resilience.MarkTransient(fmt.Errorf("cluster: node %s: reading response: %w", nc.id, err))
	}
	return callResult{status: resp.StatusCode, body: data}, nil
}

// call runs one node operation under the breaker and the retry policy:
// transport errors and 5xx answers count against the node's health and
// are retried; any other status settles the call and reads as node
// health.
func (c *Client) call(ctx context.Context, nc *nodeConn, method, path string, body []byte) (callResult, error) {
	var out callResult
	err := resilience.Retry(ctx, c.retry, func(ctx context.Context) error {
		return nc.breaker.Do(func() error {
			res, err := c.once(ctx, nc, method, path, body)
			if err != nil {
				return err
			}
			if res.status >= 500 {
				return resilience.MarkTransient(fmt.Errorf("cluster: node %s: %s %s: HTTP %d: %s",
					nc.id, method, path, res.status, bytes.TrimSpace(res.body)))
			}
			out = res
			return nil
		})
	})
	return out, err
}

// putTo writes one stored-form blob to one node, which counts its logical
// size with its own check.
func (c *Client) putTo(ctx context.Context, nc *nodeConn, digest string, comp []byte) error {
	res, err := c.call(ctx, nc, http.MethodPut, "/v1/blobs/"+digest, comp)
	if err != nil {
		return err
	}
	switch res.status {
	case http.StatusNoContent, http.StatusOK, http.StatusCreated:
		return nil
	case http.StatusUnprocessableEntity:
		// The node's fixity gate refused our bytes: either our copy is
		// bad (permanent) or the wire mangled it (a retry may cure).
		// Transient keeps the quorum honest without giving up on a blip.
		return resilience.MarkTransient(fmt.Errorf("cluster: node %s refused %s: %s", nc.id, short(digest), bytes.TrimSpace(res.body)))
	default:
		return resilience.MarkPermanent(fmt.Errorf("cluster: node %s: put %s: unexpected HTTP %d", nc.id, short(digest), res.status))
	}
}

// replica is one owner's copy of a blob as a read found it: the stored
// bytes the node served, and what their check found — the payload, when
// the read kept it, and the logical size the check counted.
type replica struct {
	comp    []byte
	payload []byte
	logical int64
}

// getFrom reads one blob from one node and checks it client-side, so a
// corrupt replica (at rest or on the wire) is detected here and the read
// can fall through to the next owner. With keep the check is DecodeBlob's
// and the payload is kept, otherwise VerifyBlob's.
func (c *Client) getFrom(ctx context.Context, nc *nodeConn, digest string, keep bool) (replica, error) {
	res, err := c.call(ctx, nc, http.MethodGet, "/v1/blobs/"+digest, nil)
	if err != nil {
		return replica{}, err
	}
	switch res.status {
	case http.StatusOK:
	case http.StatusNotFound:
		return replica{}, &cas.NotFoundError{Digest: digest}
	default:
		return replica{}, resilience.MarkPermanent(fmt.Errorf("cluster: node %s: get %s: unexpected HTTP %d", nc.id, short(digest), res.status))
	}
	r := replica{comp: res.body}
	var derr error
	if keep {
		r.payload, derr = cas.DecodeBlob(digest, res.body)
		r.logical = int64(len(r.payload))
	} else {
		r.logical, derr = cas.VerifyBlob(digest, res.body)
	}
	if derr != nil {
		return replica{}, derr
	}
	return r, nil
}

// hasOn stats one blob on one node.
func (c *Client) hasOn(ctx context.Context, nc *nodeConn, digest string) (bool, error) {
	res, err := c.call(ctx, nc, http.MethodHead, "/v1/blobs/"+digest, nil)
	if err != nil {
		return false, err
	}
	return res.status == http.StatusOK, nil
}

// deleteOn removes one blob from one node.
func (c *Client) deleteOn(ctx context.Context, nc *nodeConn, digest string) error {
	_, err := c.call(ctx, nc, http.MethodDelete, "/v1/blobs/"+digest, nil)
	return err
}

// verifyOn asks one node for its local fixity verdict on one blob.
func (c *Client) verifyOn(ctx context.Context, nc *nodeConn, digest string) (node.VerifyResult, error) {
	res, err := c.call(ctx, nc, http.MethodGet, "/v1/verify/"+digest, nil)
	if err != nil {
		return node.VerifyResult{}, err
	}
	switch res.status {
	case http.StatusOK:
		var v node.VerifyResult
		if uerr := json.Unmarshal(res.body, &v); uerr != nil {
			return node.VerifyResult{}, resilience.MarkTransient(fmt.Errorf("cluster: node %s: verify %s: bad response: %w", nc.id, short(digest), uerr))
		}
		return v, nil
	case http.StatusNotFound:
		return node.VerifyResult{}, &cas.NotFoundError{Digest: digest}
	default:
		return node.VerifyResult{}, resilience.MarkPermanent(fmt.Errorf("cluster: node %s: verify %s: unexpected HTTP %d", nc.id, short(digest), res.status))
	}
}

// list reads one node's whole digest listing.
func (c *Client) list(ctx context.Context, nc *nodeConn) ([]string, error) {
	res, err := c.call(ctx, nc, http.MethodGet, "/v1/digests", nil)
	if err != nil {
		return nil, err
	}
	if res.status != http.StatusOK {
		return nil, resilience.MarkPermanent(fmt.Errorf("cluster: node %s: digests: unexpected HTTP %d", nc.id, res.status))
	}
	var out []string
	if uerr := json.Unmarshal(res.body, &out); uerr != nil {
		return nil, resilience.MarkTransient(fmt.Errorf("cluster: node %s: digests: bad response: %w", nc.id, uerr))
	}
	return out, nil
}

// PutBlob implements cas.Backend: a quorum write across the digest's
// replica set. All replicas are written concurrently; the put succeeds
// once a majority acks, and anti-entropy later completes any replica a
// fault kept out of the quorum. The logical size is not sent: each node
// counts it.
func (c *Client) PutBlob(digest string, comp []byte, _ int64) error {
	ctx := c.ctx
	owners := c.ownerConns(digest)
	if len(owners) == 0 {
		return resilience.MarkPermanent(fmt.Errorf("cluster: no nodes available for %s", short(digest)))
	}
	quorum := len(owners)/2 + 1
	results := make(chan error, len(owners))
	for _, nc := range owners {
		go func(nc *nodeConn) { results <- c.putTo(ctx, nc, digest, comp) }(nc)
	}
	acks := 0
	var firstErr error
	for range owners {
		if err := <-results; err == nil {
			acks++
		} else if firstErr == nil {
			firstErr = err
		}
	}
	if acks >= quorum {
		return nil
	}
	return resilience.MarkTransient(fmt.Errorf("cluster: write quorum not reached for %s: %d/%d acks (need %d): %w",
		short(digest), acks, len(owners), quorum, firstErr))
}

// GetBlob implements cas.Backend: the stored bytes of the first healthy
// replica (see read).
func (c *Client) GetBlob(digest string) ([]byte, int64, error) {
	r, err := c.read(digest, false)
	return r.comp, r.logical, err
}

// ReadVerified implements cas.VerifiedReader with GetBlob's replica loop:
// the check that chose the replica is the Store's one check, and with keep
// it is DecodeBlob's, so the payload it produced is handed up instead of
// being inflated a second time.
func (c *Client) ReadVerified(digest string, keep bool) ([]byte, int64, error) {
	r, err := c.read(digest, keep)
	return r.payload, r.logical, err
}

// read is the replica loop: owners are tried in ring preference order,
// every read is checked client-side, and the first healthy copy wins.
// Owners that turned out missing or corrupt are repaired in place with the
// stored bytes that were served (best-effort — the read already
// succeeded).
func (c *Client) read(digest string, keep bool) (replica, error) {
	ctx := c.ctx
	owners := c.ownerConns(digest)
	if len(owners) == 0 {
		return replica{}, resilience.MarkPermanent(fmt.Errorf("cluster: no nodes available for %s", short(digest)))
	}
	var (
		firstErr    error
		broken      []*nodeConn
		allNotFound = true
	)
	for _, nc := range owners {
		r, err := c.getFrom(ctx, nc, digest, keep)
		if err == nil {
			for _, b := range broken {
				_ = c.putTo(ctx, b, digest, r.comp) // read-repair
			}
			return r, nil
		}
		if errors.Is(err, cas.ErrNotFound) || errors.Is(err, cas.ErrCorrupt) {
			broken = append(broken, nc)
		}
		if !errors.Is(err, cas.ErrNotFound) {
			allNotFound = false
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if allNotFound {
		return replica{}, &cas.NotFoundError{Digest: digest}
	}
	return replica{}, fmt.Errorf("cluster: no healthy replica of %s: %w", short(digest), firstErr)
}

// HasBlob implements cas.Backend: true when any owner has the blob. The
// first owner is asked alone — a blob the fleet holds is on it, and one
// answer settles the call — and only when it has none are the others asked,
// concurrently and all waited for, as in PutBlob: a new blob costs two
// round trips before its put instead of one per owner, and no request is
// sent that asking in turn would not have sent to a fleet whose replicas
// agree. Node failures read as absence — the interface has no error
// channel, and a false negative only costs an idempotent re-put.
func (c *Client) HasBlob(digest string) bool {
	ctx := c.ctx
	has := func(nc *nodeConn) bool {
		ok, err := c.hasOn(ctx, nc, digest)
		return err == nil && ok
	}
	owners := c.ownerConns(digest)
	if len(owners) == 0 {
		return false
	}
	if has(owners[0]) {
		return true
	}
	rest := owners[1:]
	answers := make(chan bool, len(rest))
	for _, nc := range rest {
		go func() { answers <- has(nc) }()
	}
	found := false
	for range rest {
		if <-answers {
			found = true
		}
	}
	return found
}

// DeleteBlob implements cas.Backend: best-effort delete on every member
// (not just owners — rebalancing may have left copies anywhere).
func (c *Client) DeleteBlob(digest string) {
	ctx := c.ctx
	for _, nc := range c.allConns() {
		_ = c.deleteOn(ctx, nc, digest)
	}
}

// Digests implements cas.Backend: the sorted union over every reachable
// member. Unreachable members are skipped; nil when none answered.
func (c *Client) Digests() []string {
	located, _, _ := c.locate(c.ctx)
	return sortedKeys(located)
}

// short truncates a digest for error messages.
func short(digest string) string {
	if len(digest) > 12 {
		return digest[:12]
	}
	return digest
}
