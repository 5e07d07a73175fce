package recast

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// queueEntry is one row of the scheduler image, in the shape the parent's
// queue journal gave its entries: testdata/parent_journals/queue.golden.json
// is that commit's own dump of them.
type queueEntry struct {
	ID             string `json:"id"`
	Tenant         string `json:"tenant"`
	DedupKey       string `json:"dedup_key,omitempty"`
	DeadlineUnixMs int64  `json:"deadline_unix_ms,omitempty"`
	Seq            uint64 `json:"seq"`
	State          string `json:"state"`
	DedupOf        string `json:"dedup_of,omitempty"`
}

// StateSnapshot renders what the scheduler knows as canonical bytes: every
// sequenced request sorted by ID, then each tenant's queued order, then the
// per-tenant served counts — the equality the kill-point sweep asserts
// between a crashed-and-recovered server and one that never crashed, and
// the image the parent's golden pins.
func (s *Server) StateSnapshot() []byte {
	type snapshot struct {
		Entries []queueEntry        `json:"entries"`
		Pending map[string][]string `json:"pending"`
		Served  map[string]int      `json:"vtime"`
	}
	snap := snapshot{Pending: make(map[string][]string), Served: make(map[string]int)}
	for _, rec := range s.svc.records() {
		if rec.Queue == nil || rec.Queue.Seq == 0 {
			continue
		}
		state := string(rec.Status)
		if rec.Status == StatusApproved {
			state = "queued"
		}
		snap.Entries = append(snap.Entries, queueEntry{
			ID: rec.ID, Tenant: rec.Requester, DedupKey: rec.Queue.DedupKey,
			DeadlineUnixMs: rec.Queue.DeadlineUnixMs, Seq: rec.Queue.Seq,
			State: state, DedupOf: rec.DedupOf,
		})
	}
	s.pq.mu.Lock()
	defer s.pq.mu.Unlock()
	for t, es := range s.pq.pending {
		for _, e := range es {
			snap.Pending[t] = append(snap.Pending[t], e.id)
		}
	}
	for t, n := range s.pq.served {
		if n != 0 {
			snap.Served[t] = n
		}
	}
	out, err := json.MarshalIndent(snap, "", " ")
	if err != nil {
		panic(err) // plain structs of strings and numbers
	}
	return out
}

func TestPQueueWeightedFairClaimOrder(t *testing.T) {
	q := newPQueue()
	push := func(id, tenant string) { q.push(entry{id: id, tenant: tenant, seq: q.nextSeq()}) }
	// A flooding tenant enqueues six ahead of everyone; three light
	// tenants each enqueue two.
	for i := 0; i < 6; i++ {
		push(fmt.Sprintf("flood-%d", i), "flood")
	}
	for i := 0; i < 2; i++ {
		push(fmt.Sprintf("a-%d", i), "alice")
		push(fmt.Sprintf("b-%d", i), "bob")
		push(fmt.Sprintf("c-%d", i), "carol")
	}
	var order []string
	for {
		e, ok := q.claim()
		if !ok {
			break
		}
		order = append(order, e.id)
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
	if len(order) != 12 {
		t.Fatalf("claimed %d entries, want 12", len(order))
	}
}

func postApprove(h http.Handler, id string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/requests/"+id+"/approve", nil)
	req.Header.Set(roleHeader, roleExperiment)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// runQueued plays the worker pool on the calling goroutine: claim and
// handle until nothing is queued.
func runQueued(srv *Server) {
	for {
		e, ok := srv.pq.claim()
		if !ok {
			return
		}
		srv.handle(e)
	}
}

// TestPQueueIdempotence: a request enters the queue once and leaves it
// once, whatever is repeated — the ledger's state machine is what refuses
// the repeat, now that the queue is a view of it.
func TestPQueueIdempotence(t *testing.T) {
	srv, stub := newTestServer(t, ServerConfig{})
	h := srv.Handler()
	var req Request
	if err := json.Unmarshal(postSubmit(t, h, "t1", 1, "").Body.Bytes(), &req); err != nil {
		t.Fatal(err)
	}
	if w := postApprove(h, req.ID); w.Code != http.StatusOK {
		t.Fatalf("approve: %d %s", w.Code, w.Body)
	}
	seq := srv.svc.records()[0].Queue.Seq
	if w := postApprove(h, req.ID); w.Code != http.StatusConflict {
		t.Fatalf("second approve: %d, want 409", w.Code)
	}
	if got := srv.svc.records()[0].Queue.Seq; got != seq {
		t.Fatalf("repeated approval moved seq %d to %d", seq, got)
	}
	if st := srv.Status().Queue; st.Queued != 1 {
		t.Fatalf("queued = %d after a repeated approval, want 1", st.Queued)
	}
	runQueued(srv)
	if err := srv.svc.expire(req.ID, "deadline expired in queue"); err == nil {
		t.Fatal("a done request expired")
	}
	if w := postApprove(h, req.ID); w.Code != http.StatusConflict {
		t.Fatalf("approve of a done request: %d, want 409", w.Code)
	}
	runQueued(srv)
	if got, _ := srv.svc.Get(req.ID); got.Status != StatusDone {
		t.Fatalf("request ended %s", got.Status)
	}
	if st := srv.Status().Queue; st.Queued != 0 || st.Claimed != 0 || st.Terminal != 1 || stub.calls != 1 {
		t.Fatalf("queue %+v after %d back-end runs, want one terminal entry of one run", st, stub.calls)
	}
}

// TestPQueueRecoveryRequeuesOrphans: a claim is memory, so the claim a dead
// process held is gone with it — the reopened ledger hands the work back in
// its place, and the tenant is not charged for service it never got.
func TestPQueueRecoveryRequeuesOrphans(t *testing.T) {
	cfg := ServerConfig{JournalDir: t.TempDir(), AutoApprove: true}
	svc, _ := newStubService(t, nil)
	srv := serveService(t, svc, cfg)
	var ids []string
	for seed := uint64(1); seed <= 2; seed++ {
		ids = append(ids, submitModel(t, srv, "t1", seed).ID)
	}
	if e, ok := srv.pq.claim(); !ok || e.id != ids[0] {
		t.Fatalf("claim = %+v %v, want %s", e, ok, ids[0])
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	svc, _ = newStubService(t, nil)
	re := serveService(t, svc, cfg)
	if st := re.Status().Queue; st.Queued != 2 || st.Claimed != 0 {
		t.Fatalf("after recovery: %+v, want 2 queued (orphan requeued)", st)
	}
	if n := re.pq.served["t1"]; n != 0 {
		t.Fatalf("recovered served count %d, want the orphaned claim's charge gone", n)
	}
	// The orphan keeps its FIFO position: it is claimed again first.
	if e, ok := re.pq.claim(); !ok || e.id != ids[0] {
		t.Fatalf("recovered claim order starts at %+v, want %s", e, ids[0])
	}
}
