package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
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
	_ cas.ListBackend    = (*Client)(nil)
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

// once performs a single HTTP exchange. The body, when there is one, is
// sent as the concatenation of its parts, streamed from them: a blob list
// is never copied into one buffer. Transport failures are transient (the
// resilience layer may retry them); responses — any status — settle the
// call.
func (c *Client) once(ctx context.Context, nc *nodeConn, method, path string, body [][]byte) (callResult, error) {
	u := nc.base + path
	var (
		rd   io.Reader
		sent int64
	)
	if body != nil {
		parts := make([]io.Reader, len(body))
		for i, p := range body {
			parts[i] = bytes.NewReader(p)
			sent += int64(len(p))
		}
		rd = io.MultiReader(parts...)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return callResult{}, resilience.MarkPermanent(fmt.Errorf("cluster: building %s %s: %w", method, u, err))
	}
	if rd != nil {
		req.ContentLength = sent
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return callResult{}, resilience.MarkTransient(fmt.Errorf("cluster: node %s unreachable: %w", nc.id, err))
	}
	defer resp.Body.Close()
	data, err := node.ReadBody(resp.Body, resp.ContentLength)
	if err != nil {
		return callResult{}, resilience.MarkTransient(fmt.Errorf("cluster: node %s: reading response: %w", nc.id, err))
	}
	return callResult{status: resp.StatusCode, body: data}, nil
}

// call runs one node operation under the breaker and the retry policy:
// transport errors and 5xx answers count against the node's health and
// are retried; any other status settles the call and reads as node
// health.
func (c *Client) call(ctx context.Context, nc *nodeConn, method, path string, body [][]byte) (callResult, error) {
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

// maxListDigests caps the digests one verify request carries.
const maxListDigests = 1 << 15

// putTo writes a list of stored-form blobs to one node in one request,
// and returns each blob's error. The node counts each blob's logical size
// with its own check.
func (c *Client) putTo(ctx context.Context, nc *nodeConn, digests []string, comps [][]byte) []error {
	errs := make([]error, len(digests))
	body := make([][]byte, 0, 2*len(digests))
	for i, d := range digests {
		body = append(body, node.AppendFrameHeader(nil, d, len(comps[i])), comps[i])
	}
	fail := func(err error) []error {
		for i := range errs {
			errs[i] = err
		}
		return errs
	}
	res, err := c.call(ctx, nc, http.MethodPost, "/v1/blobs", body)
	if err != nil {
		return fail(err)
	}
	if res.status != http.StatusOK {
		return fail(resilience.MarkPermanent(fmt.Errorf("cluster: node %s: put list: unexpected HTTP %d: %s", nc.id, res.status, bytes.TrimSpace(res.body))))
	}
	var results []node.PutResult
	if uerr := json.Unmarshal(res.body, &results); uerr != nil {
		return fail(resilience.MarkTransient(fmt.Errorf("cluster: node %s: put list: bad response: %w", nc.id, uerr)))
	}
	if len(results) != len(digests) {
		return fail(resilience.MarkTransient(fmt.Errorf("cluster: node %s: put list: %d answers for %d blobs", nc.id, len(results), len(digests))))
	}
	for i, r := range results {
		switch r.Status {
		case http.StatusNoContent:
		case http.StatusUnprocessableEntity:
			// The node's fixity gate refused our bytes: either our copy is
			// bad (permanent) or the wire mangled it (a retry may cure).
			// Transient keeps the quorum honest without giving up on a blip.
			errs[i] = resilience.MarkTransient(fmt.Errorf("cluster: node %s refused %s: %s", nc.id, short(digests[i]), r.Error))
		default:
			errs[i] = resilience.MarkPermanent(fmt.Errorf("cluster: node %s: put %s: HTTP %d: %s", nc.id, short(digests[i]), r.Status, r.Error))
		}
	}
	return errs
}

// putOne writes one blob to one node: a list of one.
func (c *Client) putOne(ctx context.Context, nc *nodeConn, digest string, comp []byte) error {
	return c.putTo(ctx, nc, []string{digest}, [][]byte{comp})[0]
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

// deleteOn removes one blob from one node.
func (c *Client) deleteOn(ctx context.Context, nc *nodeConn, digest string) error {
	_, err := c.call(ctx, nc, http.MethodDelete, "/v1/blobs/"+digest, nil)
	return err
}

// verdicts asks one node for its fixity verdicts on a list of digests, in
// order, in as few requests as the digest cap allows.
func (c *Client) verdicts(ctx context.Context, nc *nodeConn, digests []string) ([]node.VerifyResult, error) {
	out := make([]node.VerifyResult, 0, len(digests))
	for lo := 0; lo < len(digests); lo += maxListDigests {
		part := digests[lo:min(lo+maxListDigests, len(digests))]
		list, err := json.Marshal(part)
		if err != nil {
			return nil, resilience.MarkPermanent(err)
		}
		res, err := c.call(ctx, nc, http.MethodPost, "/v1/verify", [][]byte{list})
		if err != nil {
			return nil, err
		}
		if res.status != http.StatusOK {
			return nil, resilience.MarkPermanent(fmt.Errorf("cluster: node %s: verify: unexpected HTTP %d: %s", nc.id, res.status, bytes.TrimSpace(res.body)))
		}
		var got []node.VerifyResult
		if uerr := json.Unmarshal(res.body, &got); uerr != nil {
			return nil, resilience.MarkTransient(fmt.Errorf("cluster: node %s: verify: bad response: %w", nc.id, uerr))
		}
		if len(got) != len(part) {
			return nil, resilience.MarkTransient(fmt.Errorf("cluster: node %s: verify: %d verdicts for %d digests", nc.id, len(got), len(part)))
		}
		out = append(out, got...)
	}
	return out, nil
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

// PutBlob implements cas.Backend: PutMany of one blob.
func (c *Client) PutBlob(digest string, comp []byte, _ int64) error {
	return c.PutMany([]string{digest}, [][]byte{comp})[0]
}

// PutMany implements cas.ListBackend: a quorum write of each blob across
// its replica set, with one request per owner node for the whole list
// (cas.Store bounds a list's bytes). All nodes are written concurrently; a blob's put
// succeeds once a majority of its owners ack it, and anti-entropy later
// completes any replica a fault kept out of the quorum. Logical sizes are
// not sent: each node counts them.
func (c *Client) PutMany(digests []string, comps [][]byte) []error {
	owners := c.ownersOf(digests, false)
	acks := make([]int, len(digests))
	firstErr := make([]error, len(digests))
	var mu sync.Mutex
	eachNode(owners, func(nc *nodeConn, idx []int) {
		ds, cs := make([]string, len(idx)), make([][]byte, len(idx))
		for k, i := range idx {
			ds[k], cs[k] = digests[i], comps[i]
		}
		got := c.putTo(c.ctx, nc, ds, cs)
		mu.Lock()
		defer mu.Unlock()
		for k, i := range idx {
			if got[k] == nil {
				acks[i]++
			} else if firstErr[i] == nil {
				firstErr[i] = got[k]
			}
		}
	})
	errs := make([]error, len(digests))
	for i, d := range digests {
		switch n := len(owners[i]); {
		case n == 0:
			errs[i] = resilience.MarkPermanent(fmt.Errorf("cluster: no nodes available for %s", short(d)))
		case acks[i] < n/2+1:
			errs[i] = resilience.MarkTransient(fmt.Errorf("cluster: write quorum not reached for %s: %d/%d acks (need %d): %w",
				short(d), acks[i], n, n/2+1, firstErr[i]))
		}
	}
	return errs
}

// ownersOf resolves each digest's replica set, or with firstOnly its first
// owner alone.
func (c *Client) ownersOf(digests []string, firstOnly bool) [][]*nodeConn {
	owners := make([][]*nodeConn, len(digests))
	for i, d := range digests {
		owners[i] = c.ownerConns(d)
		if firstOnly && len(owners[i]) > 1 {
			owners[i] = owners[i][:1]
		}
	}
	return owners
}

// eachNode runs fn once per node among the owners, concurrently, with the
// indices of the digests it owns, and waits: one request's worth of work
// per node.
func eachNode(owners [][]*nodeConn, fn func(nc *nodeConn, idx []int)) {
	byNode := make(map[*nodeConn][]int)
	for i, ncs := range owners {
		for _, nc := range ncs {
			byNode[nc] = append(byNode[nc], i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(len(byNode))
	for nc, idx := range byNode {
		go func() {
			defer wg.Done()
			fn(nc, idx)
		}()
	}
	wg.Wait()
}

// askOwners asks the given owners of each digest for their verdicts, with
// one verify request per node for all the digests it is asked about.
// verdict[i][k] is owners[i][k]'s verdict on digests[i], and errs[i][k]
// what kept it from answering.
func (c *Client) askOwners(ctx context.Context, digests []string, owners [][]*nodeConn) (verdict [][]node.VerifyResult, errs [][]error) {
	verdict = make([][]node.VerifyResult, len(digests))
	errs = make([][]error, len(digests))
	for i := range digests {
		verdict[i] = make([]node.VerifyResult, len(owners[i]))
		errs[i] = make([]error, len(owners[i]))
	}
	eachNode(owners, func(nc *nodeConn, idx []int) {
		ds := make([]string, len(idx))
		for k, i := range idx {
			ds[k] = digests[i]
		}
		got, err := c.verdicts(ctx, nc, ds)
		for k, i := range idx {
			if o := slices.Index(owners[i], nc); err != nil {
				errs[i][o] = err
			} else {
				verdict[i][o] = got[k]
			}
		}
	})
	return verdict, errs
}

// HasMany implements cas.ListBackend: each digest's first owner is asked,
// with one verify request per node; a copy there that passes its check is
// held. A blob the fleet holds is on its first owner, so one answer settles
// it; a node that fails to answer reads as absence, which only costs an
// idempotent re-put.
func (c *Client) HasMany(digests []string) []bool {
	verdict, errs := c.askOwners(c.ctx, digests, c.ownersOf(digests, true))
	held := make([]bool, len(digests))
	for i := range digests {
		held[i] = len(verdict[i]) == 1 && errs[i][0] == nil && verdict[i][0].OK
	}
	return held
}

// VerifyMany implements cas.ListBackend: every owner's node gives its
// verdict on each digest, with one verify request per node for the whole
// list, and no blob is fetched. A digest passes when every owner holds a
// copy that passes its node's check and all count one logical size; the
// error names the first owner, in ring order, that missed, failed or could
// not answer. This trusts the nodes' verdicts as the anti-entropy sweep
// does.
func (c *Client) VerifyMany(digests []string) ([]int64, []error) {
	owners := c.ownersOf(digests, false)
	verdict, answerErrs := c.askOwners(c.ctx, digests, owners)
	logical := make([]int64, len(digests))
	errs := make([]error, len(digests))
	for i, d := range digests {
		if len(owners[i]) == 0 {
			errs[i] = resilience.MarkPermanent(fmt.Errorf("cluster: no nodes available for %s", short(d)))
			continue
		}
		for k, nc := range owners[i] {
			v := verdict[i][k]
			switch {
			case answerErrs[i][k] != nil:
				errs[i] = answerErrs[i][k]
			case v.Missing:
				errs[i] = fmt.Errorf("cluster: node %s: %w", nc.id, &cas.NotFoundError{Digest: d})
			case !v.OK:
				errs[i] = &cas.CorruptError{Digest: d, Cause: fmt.Errorf("node %s's copy fails its check", nc.id)}
			case k > 0 && v.Logical != logical[i]:
				errs[i] = &cas.CorruptError{Digest: d, Cause: fmt.Errorf("node %s counts %d logical bytes, node %s %d",
					nc.id, v.Logical, owners[i][0].id, logical[i])}
			}
			if errs[i] != nil {
				logical[i] = 0
				break
			}
			logical[i] = v.Logical
		}
	}
	return logical, errs
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
				_ = c.putOne(ctx, b, digest, r.comp) // read-repair
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

// HasBlob implements cas.Backend: HasMany of one digest.
func (c *Client) HasBlob(digest string) bool { return c.HasMany([]string{digest})[0] }

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
