package cas_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"daspos/internal/cas"
	"daspos/internal/cluster"
	"daspos/internal/node"
)

// TestClusterStoreChecksEachReadOnce: a Store over the cluster client runs
// the fixity kernel once per Get and once per Verify — the client's replica
// check, handed up through cas.VerifiedReader — as a Store over a
// ShardedBackend does with its own check. Checks are counted in chunks: a
// chunked blob's check starts each of its chunks once.
func TestClusterStoreChecksEachReadOnce(t *testing.T) {
	var chunks atomic.Int64
	cas.SetChunkStarted(func() { chunks.Add(1) })
	// Registered first, so it runs after every server below has closed.
	t.Cleanup(func() { cas.SetChunkStarted(nil) })

	var infos []cluster.NodeInfo
	for i := 0; i < 3; i++ {
		nd := node.New(fmt.Sprintf("n%d", i), nil)
		srv := httptest.NewServer(nd.Handler())
		t.Cleanup(srv.Close)
		infos = append(infos, cluster.NodeInfo{ID: nd.ID(), URL: srv.URL})
	}
	client, err := cluster.New(context.Background(), cluster.Config{Nodes: infos, ReplicationFactor: 3})
	if err != nil {
		t.Fatal(err)
	}

	payload := bytes.Repeat([]byte("checked once "), 40<<10) // past the chunking threshold
	// counted runs one read and returns how many chunk checks it made.
	counted := func(read func() (int64, error)) int64 {
		t.Helper()
		before := chunks.Load()
		n, err := read()
		if err != nil || n != int64(len(payload)) {
			t.Fatalf("read: %d bytes, %v; want %d", n, err, len(payload))
		}
		return chunks.Load() - before
	}
	reads := func(s *cas.Store, digest string) map[string]func() (int64, error) {
		return map[string]func() (int64, error){
			"Get": func() (int64, error) {
				data, err := s.Get(digest)
				return int64(len(data)), err
			},
			"Verify": func() (int64, error) { return s.Verify(digest) },
		}
	}

	local := cas.NewStore()
	digest, err := local.Put(payload)
	if err != nil {
		t.Fatal(err)
	}
	once := counted(reads(local, digest)["Get"])
	if once == 0 {
		t.Fatal("the payload was not stored chunked: nothing counted")
	}
	networked := cas.NewStoreWith(client)
	if _, err := networked.Put(payload); err != nil {
		t.Fatal(err)
	}
	for op, read := range reads(networked, digest) {
		if got := counted(read); got != once {
			t.Errorf("%s over the cluster client: %d chunk checks, want %d (one check of the blob)", op, got, once)
		}
	}
	if got := counted(reads(local, digest)["Verify"]); got != once {
		t.Errorf("Verify over a ShardedBackend: %d chunk checks, want %d", got, once)
	}
}
