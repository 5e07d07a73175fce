package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"daspos/internal/cas"
	"daspos/internal/faults"
	"daspos/internal/node"
	"daspos/internal/resilience"
)

// testCluster is an in-process multi-node cluster for tests.
type testCluster struct {
	nodes   []*node.Node
	servers []*httptest.Server
	infos   []NodeInfo
	hosts   []string // host:port per node, the partition keys
}

func startCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	return startClusterWith(t, n, nil)
}

// startClusterWith is startCluster with each node's handler passed through
// wrap, when it is set.
func startClusterWith(t *testing.T, n int, wrap func(i int, h http.Handler) http.Handler) *testCluster {
	t.Helper()
	tc := &testCluster{}
	for i := 0; i < n; i++ {
		nd := node.New(fmt.Sprintf("n%d", i), cas.NewShardedBackend(1))
		h := nd.Handler()
		if wrap != nil {
			h = wrap(i, h)
		}
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		tc.nodes = append(tc.nodes, nd)
		tc.servers = append(tc.servers, srv)
		tc.infos = append(tc.infos, NodeInfo{ID: nd.ID(), URL: srv.URL})
		tc.hosts = append(tc.hosts, srv.Listener.Addr().String())
	}
	return tc
}

// fastBreaker re-admits probes quickly so tests spend milliseconds, not
// seconds, waiting out open intervals.
func fastBreaker() resilience.BreakerConfig {
	return resilience.BreakerConfig{FailureThreshold: 3, OpenInterval: 20 * time.Millisecond}
}

func newClient(t *testing.T, tc *testCluster, cfg Config) *Client {
	t.Helper()
	cfg.Nodes = tc.infos
	if cfg.Breaker.OpenInterval == 0 {
		cfg.Breaker = fastBreaker()
	}
	c, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

// holdersOf counts how many nodes hold a digest.
func (tc *testCluster) holdersOf(digest string) int {
	n := 0
	for _, nd := range tc.nodes {
		if nd.Backend().HasBlob(digest) {
			n++
		}
	}
	return n
}

func TestQuorumWriteReplicates(t *testing.T) {
	tc := startCluster(t, 5)
	c := newClient(t, tc, Config{ReplicationFactor: 3})
	store := cas.NewStoreWith(c)

	payload := bytes.Repeat([]byte("replicate me "), 200)
	digest, err := store.Put(payload)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if got := tc.holdersOf(digest); got != 3 {
		t.Fatalf("blob on %d nodes, want replication factor 3", got)
	}
	got, err := store.Get(digest)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload round-trip mismatch")
	}
	owners := c.Owners(digest)
	if len(owners) != 3 {
		t.Fatalf("owners = %v", owners)
	}
}

func TestWriteSucceedsWithOneOwnerDown(t *testing.T) {
	tc := startCluster(t, 5)
	inj := faults.NewNetInjector(11)
	c := newClient(t, tc, Config{ReplicationFactor: 3, Transport: &faults.Transport{Inj: inj}})
	store := cas.NewStoreWith(c)

	payload := []byte("written under partial failure")
	digest := cas.Digest(payload)
	owners := c.Owners(digest)
	// Partition the first owner: quorum is 2/3, so the put must succeed.
	inj.Partition(tc.hostOf(t, owners[0]))

	if _, err := store.Put(payload); err != nil {
		t.Fatalf("Put with one owner partitioned: %v", err)
	}
	if got := tc.holdersOf(digest); got != 2 {
		t.Fatalf("blob on %d nodes, want 2 (one owner cut off)", got)
	}
}

func TestWriteFailsBelowQuorum(t *testing.T) {
	tc := startCluster(t, 5)
	inj := faults.NewNetInjector(13)
	c := newClient(t, tc, Config{ReplicationFactor: 3, Transport: &faults.Transport{Inj: inj}})
	store := cas.NewStoreWith(c)

	payload := []byte("must not pretend durability")
	digest := cas.Digest(payload)
	owners := c.Owners(digest)
	inj.Partition(tc.hostOf(t, owners[0]), tc.hostOf(t, owners[1]))

	_, err := store.Put(payload)
	if err == nil {
		t.Fatal("Put acked below write quorum")
	}
	if resilience.Classify(err) != resilience.Transient {
		t.Fatalf("quorum failure should be transient (heals when the partition does): %v", err)
	}
}

func TestReadFallsThroughReplicasAndRepairs(t *testing.T) {
	tc := startCluster(t, 5)
	c := newClient(t, tc, Config{ReplicationFactor: 3})
	store := cas.NewStoreWith(c)

	payload := bytes.Repeat([]byte("read path "), 300)
	digest, err := store.Put(payload)
	if err != nil {
		t.Fatal(err)
	}
	owners := c.Owners(digest)
	// Rot the first replica and drop the second: the read must be served
	// by the third.
	if err := tc.nodeOf(t, owners[0]).Corrupt(digest); err != nil {
		t.Fatal(err)
	}
	tc.nodeOf(t, owners[1]).Backend().DeleteBlob(digest)

	got, err := store.Get(digest)
	if err != nil {
		t.Fatalf("Get with 2/3 replicas broken: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch after replica fallback")
	}
	// Read-repair must have restored both broken owners in place.
	for _, id := range owners[:2] {
		comp, _, err := tc.nodeOf(t, id).Backend().GetBlob(digest)
		if err != nil {
			t.Fatalf("owner %s not re-replicated by read-repair: %v", id, err)
		}
		if _, err := cas.DecodeBlob(digest, comp); err != nil {
			t.Fatalf("owner %s repaired with corrupt bytes: %v", id, err)
		}
	}
}

func TestReadAllReplicasCorrupt(t *testing.T) {
	tc := startCluster(t, 3)
	c := newClient(t, tc, Config{ReplicationFactor: 3})
	store := cas.NewStoreWith(c)

	digest, err := store.Put(bytes.Repeat([]byte("doomed "), 100))
	if err != nil {
		t.Fatal(err)
	}
	for _, nd := range tc.nodes {
		if err := nd.Corrupt(digest); err != nil {
			t.Fatal(err)
		}
	}
	_, err = store.Get(digest)
	if err == nil {
		t.Fatal("Get served a blob with every replica corrupt")
	}
	if !errors.Is(err, cas.ErrCorrupt) {
		t.Fatalf("want ErrCorrupt in chain, got %v", err)
	}
}

func TestGetMissingIsNotFound(t *testing.T) {
	tc := startCluster(t, 3)
	c := newClient(t, tc, Config{ReplicationFactor: 2})
	_, _, err := c.GetBlob(cas.Digest([]byte("never stored")))
	if !errors.Is(err, cas.ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if c.HasBlob(cas.Digest([]byte("never stored"))) {
		t.Fatal("HasBlob true for absent digest")
	}
}

func TestBreakerIsolatesDeadNode(t *testing.T) {
	tc := startCluster(t, 3)
	inj := faults.NewNetInjector(17)
	c := newClient(t, tc, Config{
		ReplicationFactor: 3,
		Transport:         &faults.Transport{Inj: inj},
		Breaker:           resilience.BreakerConfig{FailureThreshold: 2, OpenInterval: time.Hour},
	})
	store := cas.NewStoreWith(c)
	inj.Partition(tc.hosts[0], tc.hosts[1], tc.hosts[2])
	// Enough failing traffic to trip every breaker.
	for i := 0; i < 3; i++ {
		_, _ = store.Put([]byte(fmt.Sprintf("doomed %d", i)))
	}
	for _, nc := range c.allConns() {
		if st := nc.breaker.State(); st != resilience.Open {
			t.Fatalf("node %s breaker %v under sustained partition, want open", nc.id, st)
		}
	}
}

func TestDigestsUnion(t *testing.T) {
	tc := startCluster(t, 4)
	c := newClient(t, tc, Config{ReplicationFactor: 2})
	store := cas.NewStoreWith(c)
	want := map[string]bool{}
	for i := 0; i < 12; i++ {
		d, err := store.Put([]byte(fmt.Sprintf("blob %d", i)))
		if err != nil {
			t.Fatal(err)
		}
		want[d] = true
	}
	ds := c.Digests()
	if len(ds) != len(want) {
		t.Fatalf("union has %d digests, want %d", len(ds), len(want))
	}
	for _, d := range ds {
		if !want[d] {
			t.Fatalf("unexpected digest %s in union", d)
		}
	}
}

// hostOf maps a node ID to its listener host (the partition key).
func (tc *testCluster) hostOf(t *testing.T, id string) string {
	t.Helper()
	for i, nd := range tc.nodes {
		if nd.ID() == id {
			return tc.hosts[i]
		}
	}
	t.Fatalf("unknown node %s", id)
	return ""
}

// nodeOf maps a node ID to its Node.
func (tc *testCluster) nodeOf(t *testing.T, id string) *node.Node {
	t.Helper()
	for _, nd := range tc.nodes {
		if nd.ID() == id {
			return nd
		}
	}
	t.Fatalf("unknown node %s", id)
	return nil
}
