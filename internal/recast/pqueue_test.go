package recast

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"testing"

	"daspos/internal/faults"
)

func openTestQueue(t *testing.T, dir string, weights map[string]float64) *PQueue {
	t.Helper()
	q, err := OpenPQueue(context.Background(), dir, PQueueOptions{Weights: weights})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { q.Close() })
	return q
}

func TestPQueueWeightedFairClaimOrder(t *testing.T) {
	q := openTestQueue(t, t.TempDir(), map[string]float64{"heavy": 2})
	// A flooding tenant enqueues six ahead of everyone; two light
	// tenants and one weighted tenant each enqueue two.
	for i := 0; i < 6; i++ {
		mustEnqueue(t, q, fmt.Sprintf("flood-%d", i), "flood")
	}
	for i := 0; i < 2; i++ {
		mustEnqueue(t, q, fmt.Sprintf("a-%d", i), "alice")
		mustEnqueue(t, q, fmt.Sprintf("b-%d", i), "bob")
		mustEnqueue(t, q, fmt.Sprintf("h-%d", i), "heavy")
	}
	var order []string
	for {
		e, ok, err := q.Claim()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		order = append(order, e.ID)
	}
	// Fair share: alice's and bob's second requests must both be served
	// before the flooder's third — the flood only queues behind itself.
	pos := make(map[string]int, len(order))
	for i, id := range order {
		pos[id] = i
	}
	if pos["a-1"] > pos["flood-2"] || pos["b-1"] > pos["flood-2"] {
		t.Fatalf("flooder starved light tenants: order %v", order)
	}
	// Weight 2 means heavy's virtual time advances half as fast: both
	// heavy entries are served before the flooder's second.
	if pos["h-1"] > pos["flood-1"] {
		t.Fatalf("weight-2 tenant served behind flooder's fair share: order %v", order)
	}
	if len(order) != 12 {
		t.Fatalf("claimed %d entries, want 12", len(order))
	}
}

func mustEnqueue(t *testing.T, q *PQueue, id, tenant string) {
	t.Helper()
	if err := q.Enqueue(QueueEntry{ID: id, Tenant: tenant}); err != nil {
		t.Fatal(err)
	}
}

func TestPQueueIdempotence(t *testing.T) {
	q := openTestQueue(t, t.TempDir(), nil)
	mustEnqueue(t, q, "r1", "t1")
	seq := func() uint64 {
		e, _ := q.Get("r1")
		return e.Seq
	}()
	mustEnqueue(t, q, "r1", "t1") // duplicate: no-op
	if got, _ := q.Get("r1"); got.Seq != seq {
		t.Fatal("duplicate enqueue reassigned seq")
	}
	if st := q.Stats(); st.Queued != 1 {
		t.Fatalf("queued = %d after duplicate enqueue, want 1", st.Queued)
	}
	if _, ok, _ := q.Claim(); !ok {
		t.Fatal("claim failed")
	}
	if err := q.Complete("r1", EntryDone, ""); err != nil {
		t.Fatal(err)
	}
	if err := q.Complete("r1", EntryFailed, ""); err != nil {
		t.Fatal("re-complete of a terminal entry must be a no-op, got", err)
	}
	if e, _ := q.Get("r1"); e.State != EntryDone {
		t.Fatalf("re-complete changed state to %s", e.State)
	}
	if err := q.Complete("r1", "meandering", ""); err == nil {
		t.Fatal("non-terminal state accepted")
	}
}

func TestPQueueRecoveryRequeuesOrphans(t *testing.T) {
	dir := t.TempDir()
	q := openTestQueue(t, dir, nil)
	mustEnqueue(t, q, "r1", "t1")
	mustEnqueue(t, q, "r2", "t1")
	if _, ok, _ := q.Claim(); !ok {
		t.Fatal("claim failed")
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	re := openTestQueue(t, dir, nil)
	st := re.Stats()
	if st.Queued != 2 || st.Claimed != 0 {
		t.Fatalf("after recovery: queued=%d claimed=%d, want 2/0 (orphan requeued)", st.Queued, st.Claimed)
	}
	// The orphan keeps its FIFO position: r1 is claimed again first.
	e, ok, err := re.Claim()
	if err != nil || !ok {
		t.Fatal("re-claim failed", err)
	}
	if e.ID != "r1" {
		t.Fatalf("recovered claim order starts at %s, want r1", e.ID)
	}
}

// TestPQueueTornTailDropped and TestPQueueCorruptMidStreamFailsOpen prove
// the queue is wired to package journal, whose own tests cover the
// torn-tail and corruption policy in full (truncation, re-append, reopen).
func TestPQueueTornTailDropped(t *testing.T) {
	dir := t.TempDir()
	q := openTestQueue(t, dir, nil)
	mustEnqueue(t, q, "r1", "t1")
	mustEnqueue(t, q, "r2", "t1")
	path := q.journal.Path()
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	if err := faults.TearFinalRecord(path); err != nil {
		t.Fatal(err)
	}
	re := openTestQueue(t, dir, nil)
	if _, ok := re.Get("r2"); ok {
		t.Fatal("torn enqueue survived replay")
	}
	if _, ok := re.Get("r1"); !ok {
		t.Fatal("durable enqueue lost with the torn tail")
	}
}

// queueScript drives one full lifecycle against the queue, written so
// every operation is idempotent: enqueues dedup by ID, claims drain
// whatever is still pending, and completions are addressed by ID with a
// fixed outcome. Re-running the script after a crash therefore converges
// on the same final state as an uncrashed run.
func queueScript(q *PQueue) error {
	entries := []QueueEntry{
		{ID: "r1", Tenant: "alice", DedupKey: "k1"},
		{ID: "r2", Tenant: "bob", DedupKey: "k2"},
		{ID: "r3", Tenant: "alice", DedupKey: "k1"}, // dedup follower of r1
		{ID: "r4", Tenant: "carol", DeadlineUnixMs: 1},
	}
	for _, e := range entries {
		if err := q.Enqueue(e); err != nil {
			return err
		}
	}
	for {
		_, ok, err := q.Claim()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
	}
	outcomes := []struct{ id, state, dedupOf string }{
		{"r1", EntryDone, ""},
		{"r2", EntryFailed, ""},
		{"r3", EntryDone, "r1"}, // dedup hit: answered from r1's archive
		{"r4", EntryExpired, ""},
	}
	for _, o := range outcomes {
		if err := q.Complete(o.id, o.state, o.dedupOf); err != nil {
			return err
		}
	}
	return nil
}

// TestPQueueKillSweep crashes the queue at every instrumented durable
// instruction of the enqueue → claim → dedup-complete → complete
// lifecycle, reopens, re-runs the script, and demands the recovered
// state be byte-identical to a never-crashed reference. The sweep covers
// every kill point hit: "journal.append" (before any byte), "journal.torn"
// (record half-written), and "journal.sync" (written, not yet durable).
func TestPQueueKillSweep(t *testing.T) {
	// Reference: the script against a queue that never crashes.
	refDir := t.TempDir()
	ref := openTestQueue(t, refDir, nil)
	if err := queueScript(ref); err != nil {
		t.Fatal(err)
	}
	want := ref.StateSnapshot()

	// Size the sweep with a disarmed killer.
	probe := faults.NewKiller()
	probeDir := t.TempDir()
	pq := openTestQueue(t, probeDir, nil)
	pq.journal.SetKill(probe.Hit)
	if err := queueScript(pq); err != nil {
		t.Fatal(err)
	}
	total := probe.Hits()
	if total < 30 {
		t.Fatalf("only %d kill points in the lifecycle; instrumentation missing", total)
	}

	for n := 1; n <= total; n++ {
		n := n
		t.Run(fmt.Sprintf("kill-%03d", n), func(t *testing.T) {
			dir := t.TempDir()
			killer := faults.NewKiller()
			killer.CrashAfterN(n)
			q, err := OpenPQueue(context.Background(), dir, PQueueOptions{})
			if err != nil {
				t.Fatal(err)
			}
			q.journal.SetKill(killer.Hit)
			crashed := func() (c bool) {
				defer func() {
					if r := recover(); r != nil {
						if _, ok := faults.AsKill(r); !ok {
							panic(r)
						}
						c = true
					}
				}()
				if err := queueScript(q); err != nil {
					t.Fatal(err)
				}
				return false
			}()
			q.Close()
			if !crashed {
				t.Fatalf("kill at hit %d never fired", n)
			}
			// Restart: reopen the journal and re-run the script to the
			// end, as the restarted service would.
			re, err := OpenPQueue(context.Background(), dir, PQueueOptions{})
			if err != nil {
				t.Fatalf("reopen after kill %d: %v", n, err)
			}
			defer re.Close()
			if err := queueScript(re); err != nil {
				t.Fatalf("resume after kill %d: %v", n, err)
			}
			got := re.StateSnapshot()
			if !bytes.Equal(got, want) {
				t.Fatalf("state after kill %d diverges from uncrashed reference:\n--- got ---\n%s\n--- want ---\n%s",
					n, got, want)
			}
			// And the final journal must itself replay to the same state.
			re.Close()
			re2, err := OpenPQueue(context.Background(), dir, PQueueOptions{})
			if err != nil {
				t.Fatalf("final replay after kill %d: %v", n, err)
			}
			defer re2.Close()
			if got2 := re2.StateSnapshot(); !bytes.Equal(got2, want) {
				t.Fatalf("journal replay after kill %d diverges:\n%s", n, got2)
			}
		})
	}
}

func TestPQueueCorruptMidStreamFailsOpen(t *testing.T) {
	dir := t.TempDir()
	q := openTestQueue(t, dir, nil)
	mustEnqueue(t, q, "r1", "t1")
	path := q.journal.Path()
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append([]byte("not json\n"), data...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenPQueue(context.Background(), dir, PQueueOptions{}); err == nil {
		t.Fatal("mid-stream corruption opened silently")
	}
}
