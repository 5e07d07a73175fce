package daspos

// Multi-node chaos end-to-end: drive a five-node preservation network
// through the failure model the paper's multi-site replication story
// assumes survivable — a dead node, a network partition, a slow site,
// a sustained fault storm on the wire, and replica bit-rot — and prove
// that after the weather clears, anti-entropy repair converges the
// cluster back to 100% fixity, full replication factor, and an archive
// byte-identical to one ingested with no faults at all.

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"daspos/internal/archive"
	"daspos/internal/cas"
	"daspos/internal/cluster"
	"daspos/internal/datamodel"
	"daspos/internal/faults"
	"daspos/internal/node"
	"daspos/internal/resilience"
	"daspos/internal/xrand"
)

// chaosCorpus builds the deterministic set of packages both the baseline
// and the cluster ingest, so the two archives are comparable byte for
// byte.
func chaosCorpus(rng *xrand.Rand) []struct {
	meta  archive.Metadata
	files map[string][]byte
} {
	var out []struct {
		meta  archive.Metadata
		files map[string][]byte
	}
	for i := 0; i < 10; i++ {
		files := map[string][]byte{}
		for f := 0; f < 4; f++ {
			buf := make([]byte, 2048+int(rng.Uint64()%4096))
			for j := range buf {
				buf[j] = byte(rng.Uint64())
			}
			files[fmt.Sprintf("data/file-%d.bin", f)] = buf
		}
		files["README"] = []byte(fmt.Sprintf("analysis capsule %d", i))
		out = append(out, struct {
			meta  archive.Metadata
			files map[string][]byte
		}{
			meta: archive.Metadata{
				Title:   fmt.Sprintf("chaos capsule %d", i),
				Creator: "e2e",
				Level:   datamodel.DPHEPLevel3,
			},
			files: files,
		})
	}
	return out
}

func ingestCorpus(t *testing.T, a *archive.Archive, corpus []struct {
	meta  archive.Metadata
	files map[string][]byte
}) []string {
	t.Helper()
	var ids []string
	for _, c := range corpus {
		id, err := a.Ingest(c.meta, c.files)
		if err != nil {
			t.Fatalf("ingest %q: %v", c.meta.Title, err)
		}
		ids = append(ids, id)
	}
	return ids
}

func TestClusterChaosE2E(t *testing.T) {
	ctx := context.Background()
	corpus := chaosCorpus(xrand.New(0xda5905))

	// Fault-free baseline: the ground truth every restored byte is
	// compared against.
	baseline := archive.New()
	ids := ingestCorpus(t, baseline, corpus)

	// --- five-node cluster behind a faulty network ---
	inj := faults.NewNetInjector(42)
	var (
		nodes   []*node.Node
		servers []*httptest.Server
		infos   []cluster.NodeInfo
		hosts   []string
	)
	for i := 0; i < 5; i++ {
		nd := node.New(fmt.Sprintf("site-%d", i), cas.NewShardedBackend(1))
		srv := httptest.NewServer(nd.Handler())
		t.Cleanup(srv.Close)
		nodes = append(nodes, nd)
		servers = append(servers, srv)
		infos = append(infos, cluster.NodeInfo{ID: nd.ID(), URL: srv.URL})
		hosts = append(hosts, srv.Listener.Addr().String())
	}
	cl, err := cluster.New(ctx, cluster.Config{
		Nodes:             infos,
		ReplicationFactor: 3,
		Transport:         &faults.Transport{Inj: inj},
		Retry:             resilience.Policy{MaxAttempts: 6, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond, Jitter: 0.2},
		Breaker:           resilience.BreakerConfig{FailureThreshold: 8, OpenInterval: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	remote := archive.NewWithStore(cas.NewStoreWith(cl))

	// Ingest under a 30% fault storm: nearly every third request on the
	// wire answers 503, and some blob reads flip bits in flight. The
	// retry/quorum machinery must absorb all of it.
	inj.WithErrorRate(0.30).WithCorruptRate(0.05)
	load := resilience.Policy{MaxAttempts: 8, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond, Jitter: 0.2}
	for i, c := range corpus {
		var id string
		err := resilience.Retry(ctx, load, func(context.Context) (err error) {
			id, err = remote.Ingest(c.meta, c.files)
			return err
		})
		if err != nil {
			t.Fatalf("ingesting %q into the cluster under faults: %v", c.meta.Title, err)
		}
		// IDs are content addresses: the fleet's equal the baseline's.
		if id != ids[i] {
			t.Fatalf("package %q: cluster ID %s, baseline %s", c.meta.Title, id, ids[i])
		}
	}

	// --- chaos proper ---
	// Site 2 dies outright (process gone, socket closed).
	servers[2].Close()
	// Site 3 is partitioned away.
	inj.Partition(hosts[3])
	// Site 4 turns slow.
	inj.SetSlow(hosts[4], faults.SlowSpec{Base: 2 * time.Millisecond, Jitter: 3 * time.Millisecond})
	// Bit-rot eats one replica of the first few digests on site 0.
	rotted := 0
	for _, d := range nodes[0].Backend().Digests() {
		if rotted == 6 {
			break
		}
		if err := nodes[0].Corrupt(d); err != nil {
			t.Fatal(err)
		}
		rotted++
	}

	// Sweeps during the storm make progress (repairing what they can
	// reach) but cannot converge; that is expected and not asserted.
	_, _ = cl.Sweep(ctx)
	_, _ = cl.Sweep(ctx)

	// Reads must still serve verified bytes while 2/5 of the sites are
	// dark and the wire is stormy.
	if got, err := remote.Fetch(ids[0], "README"); err != nil {
		t.Fatalf("read during chaos: %v", err)
	} else if !bytes.Equal(got, []byte("analysis capsule 0")) {
		t.Fatal("read during chaos returned wrong bytes")
	}

	// --- the weather clears ---
	inj.HealAll()
	inj.ClearSlow(hosts[4])
	inj.WithErrorRate(0).WithCorruptRate(0)
	// The dead site is rebuilt from scratch: same identity, empty disk,
	// new address. Placement is unchanged (same ID on the ring), so
	// anti-entropy re-replicates everything it owned.
	cl.RemoveNode("site-2")
	rebuilt := node.New("site-2", cas.NewShardedBackend(1))
	srv := httptest.NewServer(rebuilt.Handler())
	t.Cleanup(srv.Close)
	nodes[2] = rebuilt
	infos[2] = cluster.NodeInfo{ID: "site-2", URL: srv.URL}
	if err := cl.AddNode(infos[2]); err != nil {
		t.Fatal(err)
	}

	final, err := cl.SweepUntilConverged(ctx, 25)
	if err != nil {
		t.Fatalf("anti-entropy never converged: %v (%s)", err, final)
	}
	if !final.Converged() {
		t.Fatalf("final sweep not converged: %s", final)
	}

	// 100% fixity through the archive layer's own audit.
	rep := remote.VerifyAll()
	if len(rep.Damaged) != 0 || rep.Healthy != rep.Packages {
		t.Fatalf("post-repair fixity audit: %d/%d healthy, damaged=%v", rep.Healthy, rep.Packages, rep.Damaged)
	}

	// Full replication factor: every blob on exactly RF nodes.
	perDigest := map[string]int{}
	total := 0
	for _, nd := range nodes {
		for _, d := range nd.Backend().Digests() {
			perDigest[d]++
			total++
		}
	}
	for d, n := range perDigest {
		if n != 3 {
			t.Fatalf("digest %s on %d nodes after repair, want 3", d[:12], n)
		}
	}
	if want := len(perDigest) * 3; total != want {
		t.Fatalf("cluster holds %d replicas, want %d", total, want)
	}

	// Byte-identical to the fault-free archive.
	for i, id := range ids {
		pkg, ok := remote.Get(id)
		if !ok {
			t.Fatalf("package %d (%s) missing from cluster archive", i, id)
		}
		for _, f := range pkg.Files {
			got, err := remote.Fetch(id, f.Path)
			if err != nil {
				t.Fatalf("fetch %s/%s: %v", id, f.Path, err)
			}
			want, err := baseline.Fetch(id, f.Path)
			if err != nil {
				t.Fatalf("baseline fetch %s/%s: %v", id, f.Path, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s/%s differs from fault-free baseline", id, f.Path)
			}
		}
	}

	// The index lives in the fleet too: a fresh client over the same five
	// nodes, with none of this process's map, recovers every package from
	// the manifest blobs alone, and every file reads back byte-identical.
	fresh, err := cluster.New(ctx, cluster.Config{Nodes: infos, ReplicationFactor: 3})
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := archive.Recover(fresh)
	if err != nil {
		t.Fatalf("recovering the archive from the fleet: %v", err)
	}
	if got, want := recovered.IDs(), baseline.IDs(); !slices.Equal(got, want) {
		t.Fatalf("recovered packages %v, want %v", got, want)
	}
	for _, id := range ids {
		pkg, _ := recovered.Get(id)
		for _, f := range pkg.Files {
			got, err := recovered.Fetch(id, f.Path)
			want, _ := baseline.Fetch(id, f.Path)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("recovered %s/%s differs from the baseline: %v", id, f.Path, err)
			}
		}
	}
}
