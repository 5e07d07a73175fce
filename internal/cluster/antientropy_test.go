package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"daspos/internal/cas"
	"daspos/internal/node"
)

// seedBlobs pushes n distinct payloads through a store over the client
// and returns digest → payload.
func seedBlobs(t *testing.T, c *Client, n int) map[string][]byte {
	t.Helper()
	store := cas.NewStoreWith(c)
	out := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		payload := bytes.Repeat([]byte(fmt.Sprintf("payload %02d ", i)), 64)
		d, err := store.Put(payload)
		if err != nil {
			t.Fatalf("seeding blob %d: %v", i, err)
		}
		out[d] = payload
	}
	return out
}

// assertFullyReplicated checks every digest has a verified copy on every
// owner.
func assertFullyReplicated(t *testing.T, tc *testCluster, c *Client, blobs map[string][]byte) {
	t.Helper()
	for d := range blobs {
		for _, id := range c.Owners(d) {
			comp, _, err := tc.nodeOf(t, id).Backend().GetBlob(d)
			if err != nil {
				t.Fatalf("owner %s missing %s: %v", id, d[:12], err)
			}
			if _, err := cas.DecodeBlob(d, comp); err != nil {
				t.Fatalf("owner %s holds corrupt %s: %v", id, d[:12], err)
			}
		}
	}
}

func TestSweepHealthyClusterConverges(t *testing.T) {
	tc := startCluster(t, 5)
	c := newClient(t, tc, Config{ReplicationFactor: 3})
	blobs := seedBlobs(t, c, 20)

	rep, err := c.Sweep(context.Background())
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if !rep.Converged() {
		t.Fatalf("healthy cluster did not read converged: %s", rep)
	}
	if rep.Digests != len(blobs) {
		t.Fatalf("sweep saw %d digests, want %d", rep.Digests, len(blobs))
	}
}

// listingCounter is a transport that counts the digest listings it
// carries.
type listingCounter struct{ listings atomic.Int64 }

func (lc *listingCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path == "/v1/digests" {
		lc.listings.Add(1)
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestSweepListsEachMemberOnce: a sweep, and the client's Digests, read
// one whole listing per member, and that is every digest.
func TestSweepListsEachMemberOnce(t *testing.T) {
	tc := startCluster(t, 5)
	lc := &listingCounter{}
	c := newClient(t, tc, Config{ReplicationFactor: 3, Transport: lc})
	blobs := seedBlobs(t, c, 40)
	if n := lc.listings.Load(); n != 0 {
		t.Fatalf("seeding sent %d listings", n)
	}

	rep, err := c.Sweep(context.Background())
	if err != nil || !rep.Converged() || rep.Digests != len(blobs) {
		t.Fatalf("sweep: %v (%s), want %d digests converged", err, rep, len(blobs))
	}
	if n := lc.listings.Load(); n != int64(len(tc.nodes)) {
		t.Fatalf("a sweep over %d members sent %d listings, want one each", len(tc.nodes), n)
	}
	if ds := c.Digests(); len(ds) != len(blobs) {
		t.Fatalf("Digests: %d, want %d", len(ds), len(blobs))
	}
	if n := lc.listings.Load(); n != 2*int64(len(tc.nodes)) {
		t.Fatalf("Digests sent %d listings, want %d", n-int64(len(tc.nodes)), len(tc.nodes))
	}
}

func TestSweepRepairsBitRot(t *testing.T) {
	tc := startCluster(t, 5)
	c := newClient(t, tc, Config{ReplicationFactor: 3})
	blobs := seedBlobs(t, c, 15)

	// Rot one replica of five digests, on their first owners.
	rotted := 0
	for d := range blobs {
		if rotted == 5 {
			break
		}
		if err := tc.nodeOf(t, c.Owners(d)[0]).Corrupt(d); err != nil {
			t.Fatal(err)
		}
		rotted++
	}

	rep, err := c.Sweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repaired != 5 {
		t.Fatalf("repaired %d replicas, want 5 (%s)", rep.Repaired, rep)
	}
	final, err := c.SweepUntilConverged(context.Background(), 5)
	if err != nil {
		t.Fatalf("convergence: %v (%s)", err, final)
	}
	assertFullyReplicated(t, tc, c, blobs)
}

func TestSweepRestoresLostNode(t *testing.T) {
	tc := startCluster(t, 5)
	c := newClient(t, tc, Config{ReplicationFactor: 3})
	blobs := seedBlobs(t, c, 15)

	// Node 2 loses its disk: every blob it held is gone.
	lost := tc.nodes[2]
	held := len(lost.Backend().Digests())
	if held == 0 {
		t.Fatal("test premise broken: node 2 holds nothing")
	}
	for _, d := range lost.Backend().Digests() {
		lost.Backend().DeleteBlob(d)
	}

	final, err := c.SweepUntilConverged(context.Background(), 5)
	if err != nil {
		t.Fatalf("convergence after node wipe: %v (%s)", err, final)
	}
	assertFullyReplicated(t, tc, c, blobs)
	if got := len(lost.Backend().Digests()); got != held {
		t.Fatalf("wiped node re-replicated %d blobs, originally held %d", got, held)
	}
}

func TestSweepUnrecoverableWhenEveryCopyRots(t *testing.T) {
	tc := startCluster(t, 3)
	c := newClient(t, tc, Config{ReplicationFactor: 3})
	store := cas.NewStoreWith(c)
	d, err := store.Put(bytes.Repeat([]byte("last copy "), 64))
	if err != nil {
		t.Fatal(err)
	}
	for _, nd := range tc.nodes {
		if err := nd.Corrupt(d); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := c.Sweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unrecoverable != 1 {
		t.Fatalf("unrecoverable = %d, want 1 (%s)", rep.Unrecoverable, rep)
	}
}

func TestJoinRebalancesOntoNewNode(t *testing.T) {
	tc := startCluster(t, 4)
	c := newClient(t, tc, Config{ReplicationFactor: 3})
	blobs := seedBlobs(t, c, 30)

	// A fifth node joins empty.
	nd := node.New("n4", cas.NewShardedBackend(1))
	srv := httptest.NewServer(nd.Handler())
	t.Cleanup(srv.Close)
	tc.nodes = append(tc.nodes, nd)
	tc.servers = append(tc.servers, srv)
	tc.hosts = append(tc.hosts, srv.Listener.Addr().String())
	if err := c.AddNode(NodeInfo{ID: "n4", URL: srv.URL}); err != nil {
		t.Fatal(err)
	}

	final, err := c.SweepUntilConverged(context.Background(), 6)
	if err != nil {
		t.Fatalf("convergence after join: %v (%s)", err, final)
	}
	if got := len(nd.Backend().Digests()); got == 0 {
		t.Fatal("new node received nothing from rebalancing")
	}
	assertFullyReplicated(t, tc, c, blobs)

	// Copies stranded on former owners must have been trimmed: total
	// replicas across the cluster is exactly digests × RF.
	total := 0
	for _, n := range tc.nodes {
		total += len(n.Backend().Digests())
	}
	if total != len(blobs)*3 {
		t.Fatalf("cluster holds %d replicas, want %d (stranded copies not trimmed)", total, len(blobs)*3)
	}
}

func TestLeaveRestoresReplicationOnSurvivors(t *testing.T) {
	tc := startCluster(t, 5)
	c := newClient(t, tc, Config{ReplicationFactor: 3})
	blobs := seedBlobs(t, c, 20)

	// Node 1 leaves the membership (its server keeps running, but it is
	// no longer part of the ring — a decommission, not a crash).
	c.RemoveNode("n1")
	tc.servers[1].Close()
	tc.nodes = append(tc.nodes[:1], tc.nodes[2:]...)
	tc.servers = append(tc.servers[:1], tc.servers[2:]...)
	tc.hosts = append(tc.hosts[:1], tc.hosts[2:]...)

	final, err := c.SweepUntilConverged(context.Background(), 6)
	if err != nil {
		t.Fatalf("convergence after leave: %v (%s)", err, final)
	}
	assertFullyReplicated(t, tc, c, blobs)
}

func TestSweepSkipsTrimWhileMemberUnreachable(t *testing.T) {
	tc := startCluster(t, 4)
	c := newClient(t, tc, Config{ReplicationFactor: 2})
	seedBlobs(t, c, 8)

	// Take one member down hard; the sweep must report it and must not
	// trim anything while the membership view is partial.
	tc.servers[3].Close()
	rep, err := c.Sweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Unreachable) != 1 || rep.Unreachable[0] != "n3" {
		t.Fatalf("unreachable = %v, want [n3]", rep.Unreachable)
	}
	if rep.Removed != 0 {
		t.Fatalf("sweep trimmed %d copies with a member unreachable", rep.Removed)
	}
	if rep.Converged() {
		t.Fatal("sweep read converged with a member unreachable")
	}
}
