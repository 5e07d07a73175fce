package bench

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"time"

	"daspos/internal/archive"
	"daspos/internal/cas"
	"daspos/internal/cluster"
	"daspos/internal/node"
)

const (
	fleetNodes = 5
	fleetRF    = 3
	// largeBlob is cas's chunking threshold: at and above it a blob
	// travels in the chunked stored form.
	largeBlob = 256 << 10
)

// fleet is a five-node preservation network in this process: every node a
// node.Node over a cas.ShardedBackend behind a real loopback listener,
// one cluster.Client over them, and an archive on a cas.Store on that
// client — started the way cluster_e2e_test.go and cmd/daspos-bench do.
type fleet struct {
	nodes   []*node.Node
	servers []*httptest.Server
	client  *cluster.Client
	backend cas.Backend // the client, behind the meter in a traced pass
	archive *archive.Archive
	cancel  context.CancelFunc
	// held is what the nodes held each time empty took it away.
	held fleetStorage

	// Set in a traced pass only.
	cm *clusterMeter
	nm *nodeMeter
}

func startFleet(c *runCtx) (*fleet, error) {
	f := &fleet{}
	if c.tr != nil {
		f.cm = &clusterMeter{tr: c.tr}
		f.nm = &nodeMeter{tr: c.tr}
	}
	var infos []cluster.NodeInfo
	for i := 0; i < fleetNodes; i++ {
		nd := node.New(fmt.Sprintf("site-%d", i), cas.NewShardedBackend(0))
		h := nd.Handler()
		if f.nm != nil {
			h = f.nm.wrap(h)
		}
		srv := httptest.NewServer(h)
		f.nodes = append(f.nodes, nd)
		f.servers = append(f.servers, srv)
		infos = append(infos, cluster.NodeInfo{ID: nd.ID(), URL: srv.URL})
	}
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	cl, err := cluster.New(ctx, cluster.Config{Nodes: infos, ReplicationFactor: fleetRF})
	if err != nil {
		f.close()
		return nil, fmt.Errorf("bench: cluster client: %w", err)
	}
	f.client = cl
	var backend cas.Backend = cl
	if f.cm != nil {
		f.cm.inner = cl
		backend = f.cm
	}
	f.backend = backend
	f.archive = archive.NewWithStore(cas.NewStoreWith(backend))
	return f, nil
}

// empty adds what the nodes hold to f.held, removes it, and puts a new
// archive on the network: the empty fleet every round starts from, with
// its listeners and keep-alive connections as they were. Rounds are alike
// that way — an audit covers one round's data, not everything so far — so
// each is a like slice of the timed part. It runs on no clock.
func (f *fleet) empty() {
	f.held.add(f.storage())
	for _, nd := range f.nodes {
		b := nd.Backend()
		for _, d := range b.Digests() {
			b.DeleteBlob(d)
		}
	}
	f.archive = archive.NewWithStore(cas.NewStoreWith(f.backend))
}

func (f *fleet) close() {
	if f.cancel != nil {
		f.cancel()
	}
	for _, s := range f.servers {
		s.Close()
	}
}

// fleetStorage is what the nodes hold, read from their backends directly.
type fleetStorage struct {
	perNode       []int64 // bytes on each node, replicas included
	uniqueStored  int64   // bytes of one replica of each blob
	uniqueLogical int64   // logical bytes of each blob once
	replicasMin   int     // holders of the least-replicated blob
	replicasMax   int
}

// add folds another stock-take into st.
func (st *fleetStorage) add(o fleetStorage) {
	if st.perNode == nil {
		st.perNode = make([]int64, len(o.perNode))
	}
	for i, b := range o.perNode {
		st.perNode[i] += b
	}
	st.uniqueStored += o.uniqueStored
	st.uniqueLogical += o.uniqueLogical
	if o.replicasMin != 0 && (st.replicasMin == 0 || o.replicasMin < st.replicasMin) {
		st.replicasMin = o.replicasMin
	}
	st.replicasMax = max(st.replicasMax, o.replicasMax)
}

// stored is the bytes over all nodes.
func (st fleetStorage) stored() (n int64) {
	for _, b := range st.perNode {
		n += b
	}
	return n
}

// skew is the fullest node's bytes over the emptiest's.
func (st fleetStorage) skew() float64 {
	if len(st.perNode) == 0 {
		return 0
	}
	return ratio(float64(slices.Max(st.perNode)), float64(slices.Min(st.perNode)))
}

// checkReplication counts one operation: every blob on exactly RF nodes.
func (st fleetStorage) checkReplication(t *tally) {
	t.check(st.replicasMin == fleetRF && st.replicasMax == fleetRF,
		"replication: blobs sit on %d to %d nodes, want exactly %d", st.replicasMin, st.replicasMax, fleetRF)
}

func (f *fleet) storage() fleetStorage {
	st := fleetStorage{perNode: make([]int64, len(f.nodes))}
	holders := make(map[string]int)
	for i, nd := range f.nodes {
		b := nd.Backend()
		for _, d := range b.Digests() {
			comp, logical, err := b.GetBlob(d)
			if err != nil {
				continue
			}
			st.perNode[i] += int64(len(comp))
			if holders[d] == 0 {
				st.uniqueStored += int64(len(comp))
				st.uniqueLogical += logical
			}
			holders[d]++
		}
	}
	for _, n := range holders {
		if st.replicasMin == 0 || n < st.replicasMin {
			st.replicasMin = n
		}
		if n > st.replicasMax {
			st.replicasMax = n
		}
	}
	return st
}

// Binding keys shared by the spans on either side of a layer the
// benchmark cannot see into.
func fileKey(digest string) string     { return "file:" + digest }
func wireKey(op, digest string) string { return op + ":" + digest }

// phaseKey is bound to the span of the running phase: the parent of work
// no finer binding claims (the audit's internal workers, the sweep).
const phaseKey = "phase"

// clusterMeter is the cas.Backend the benchmark puts around cluster.Client
// in a traced pass: one span per PutBlob/GetBlob/HasBlob, with call counts
// and latencies by blob size.
type clusterMeter struct {
	inner cas.Backend
	tr    *Tracer

	mu            sync.Mutex
	put, get, has callStats
}

// callStats is one backend method's calls: small blobs by latency, large
// (chunked) ones by throughput.
type callStats struct {
	calls   int64
	smallMs []float64
	largeB  int64
	largeS  float64
}

// call opens the span of one backend call, bound under op for the node
// spans it causes, and returns the func that closes it and files the call.
func (m *clusterMeter) call(st *callStats, op, name, digest string) func(stored, logical int64) {
	span := m.tr.Begin(m.tr.Lookup(fileKey(digest), phaseKey), "cluster", name)
	m.tr.Bind(wireKey(op, digest), span)
	t0 := time.Now()
	return func(stored, logical int64) {
		d := time.Since(t0)
		m.tr.Unbind(wireKey(op, digest))
		m.tr.End(span, stored, 0)
		m.mu.Lock()
		st.calls++
		if logical >= largeBlob {
			st.largeB += logical
			st.largeS += d.Seconds()
		} else {
			st.smallMs = append(st.smallMs, float64(d)/1e6)
		}
		m.mu.Unlock()
	}
}

func (m *clusterMeter) PutBlob(digest string, comp []byte, logical int64) error {
	done := m.call(&m.put, "put", "PutBlob", digest)
	err := m.inner.PutBlob(digest, comp, logical)
	done(int64(len(comp)), logical)
	return err
}

func (m *clusterMeter) GetBlob(digest string) ([]byte, int64, error) {
	done := m.call(&m.get, "get", "GetBlob", digest)
	comp, logical, err := m.inner.GetBlob(digest)
	done(int64(len(comp)), logical)
	return comp, logical, err
}

func (m *clusterMeter) HasBlob(digest string) bool {
	done := m.call(&m.has, "has", "HasBlob", digest)
	ok := m.inner.HasBlob(digest)
	done(0, 0)
	return ok
}

func (m *clusterMeter) DeleteBlob(digest string) { m.inner.DeleteBlob(digest) }
func (m *clusterMeter) Digests() []string        { return m.inner.Digests() }

func (m *clusterMeter) into(v values) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v["cluster.put_calls"] = float64(m.put.calls)
	v["cluster.get_calls"] = float64(m.get.calls)
	v["cluster.has_calls"] = float64(m.has.calls)
	v["cluster.put_ms_p50_small"] = percentile(m.put.smallMs, 50)
	v["cluster.get_ms_p50_small"] = percentile(m.get.smallMs, 50)
	v["cluster.put_mb_per_s_large"] = ratio(float64(m.put.largeB)/1e6, m.put.largeS)
	v["cluster.get_mb_per_s_large"] = ratio(float64(m.get.largeB)/1e6, m.get.largeS)
}

// nodeMeter is the http.Handler the benchmark puts around node.Handler()
// in a traced pass: one span per request, parented on the cluster span
// that is moving the same digest.
type nodeMeter struct {
	tr *Tracer

	mu                sync.Mutex
	requests          int64
	putMs             []float64
	putS, getS        float64
	bytesIn, bytesOut int64
}

// countingWriter counts the body bytes a handler writes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (m *nodeMeter) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, name := "", r.Method+" "+r.URL.Path
		if d, ok := strings.CutPrefix(r.URL.Path, "/v1/blobs/"); ok {
			switch r.Method {
			case http.MethodPut:
				op, name = wireKey("put", d), "PUT blob"
			case http.MethodGet:
				op, name = wireKey("get", d), "GET blob"
			case http.MethodHead:
				op, name = wireKey("has", d), "HEAD blob"
			}
		} else if strings.HasPrefix(r.URL.Path, "/v1/verify/") {
			name = "GET verify"
		}
		span := m.tr.Begin(m.tr.Lookup(op, phaseKey), "node", name)
		cw := &countingWriter{ResponseWriter: w}
		t0 := time.Now()
		h.ServeHTTP(cw, r)
		d := time.Since(t0)
		in := r.ContentLength
		if in < 0 {
			in = 0
		}
		m.tr.End(span, in+cw.n, 0)
		m.mu.Lock()
		m.requests++
		m.bytesIn += in
		m.bytesOut += cw.n
		switch name {
		case "PUT blob":
			m.putS += d.Seconds()
			m.putMs = append(m.putMs, float64(d)/1e6)
		case "GET blob":
			m.getS += d.Seconds()
		}
		m.mu.Unlock()
	})
}

func (m *nodeMeter) into(v values) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v["node.requests"] = float64(m.requests)
	v["node.put_service_s"] = m.putS
	v["node.put_service_ms_p50"] = percentile(m.putMs, 50)
	v["node.get_service_s"] = m.getS
	v["node.bytes_in"] = float64(m.bytesIn)
	v["node.bytes_out"] = float64(m.bytesOut)
}
