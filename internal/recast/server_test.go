package recast

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"daspos/internal/resilience"
)

// serverClock is a hand-cranked clock shared by server, buckets, and
// deadline checks in admission tests.
type serverClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *serverClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *serverClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func newTestServer(t *testing.T, cfg ServerConfig) (*Server, *flakyStub) {
	t.Helper()
	svc, stub := newStubService(t, nil)
	return serveService(t, svc, cfg), stub
}

// serveService opens a Server over svc, journaling to cfg.JournalDir (a
// fresh temp directory when empty) under the sleepless retry policy.
func serveService(t *testing.T, svc *Service, cfg ServerConfig) *Server {
	t.Helper()
	if cfg.JournalDir == "" {
		cfg.JournalDir = t.TempDir()
	}
	if cfg.Policy.MaxAttempts == 0 {
		cfg.Policy = fastPolicy()
	}
	srv, err := NewServer(context.Background(), svc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func postSubmit(t *testing.T, h http.Handler, tenant string, seed uint64, budget string) *httptest.ResponseRecorder {
	t.Helper()
	m := validModel()
	m.Seed = seed
	body, err := json.Marshal(submitBody{
		Analysis: "GPD_2013_DIMUON_HIGHMASS", Requester: tenant, Model: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/requests", bytes.NewReader(body))
	if budget != "" {
		req.Header.Set(BudgetHeader, budget)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestServerRateLimitSheds(t *testing.T) {
	clk := &serverClock{t: time.Unix(5000, 0)}
	srv, _ := newTestServer(t, ServerConfig{
		TenantRate: 1, TenantBurst: 2, AutoApprove: true, Now: clk.now,
	})
	h := srv.Handler()
	// Two burst tokens admit; the third submission is shed.
	for i := 0; i < 2; i++ {
		if w := postSubmit(t, h, "alice", uint64(i), ""); w.Code != http.StatusAccepted {
			t.Fatalf("burst submit %d: %d %s", i, w.Code, w.Body)
		}
	}
	w := postSubmit(t, h, "alice", 9, "")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-rate submit: %d, want 429", w.Code)
	}
	ra, err := strconv.Atoi(w.Result().Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", w.Result().Header.Get("Retry-After"))
	}
	// Another tenant's bucket is untouched — per-tenant isolation.
	if w := postSubmit(t, h, "bob", 1, ""); w.Code != http.StatusAccepted {
		t.Fatalf("bob's first submit shed with alice over limit: %d", w.Code)
	}
	// After the advertised wait, alice is admitted again.
	clk.advance(time.Duration(ra) * time.Second)
	if w := postSubmit(t, h, "alice", 10, ""); w.Code != http.StatusAccepted {
		t.Fatalf("post-Retry-After submit: %d, want 202", w.Code)
	}
	st := srv.Status()
	if st.Shed != 1 || st.Tenants["alice"].Shed != 1 {
		t.Fatalf("shed accounting = %+v", st)
	}
}

func TestServerQueueBoundSheds(t *testing.T) {
	srv, _ := newTestServer(t, ServerConfig{QueueBound: 2, AutoApprove: true})
	h := srv.Handler()
	for i := 0; i < 2; i++ {
		if w := postSubmit(t, h, "alice", uint64(i), ""); w.Code != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, w.Code, w.Body)
		}
	}
	w := postSubmit(t, h, "alice", 7, "")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("queue-full submit: %d, want 429", w.Code)
	}
	if w.Result().Header.Get("Retry-After") == "" {
		t.Fatal("queue-full shed without Retry-After")
	}
}

func TestServerInfeasibleDeadlineSheds(t *testing.T) {
	srv, _ := newTestServer(t, ServerConfig{Workers: 1, QueueBound: 10, AutoApprove: true})
	h := srv.Handler()
	// Prime the queue and the service-time estimate: two queued entries
	// at ~1s each on one worker means a new arrival waits ~2s.
	for i := 0; i < 2; i++ {
		if w := postSubmit(t, h, "alice", uint64(i), ""); w.Code != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, w.Code, w.Body)
		}
	}
	srv.mu.Lock()
	srv.ewmaMs = 1000
	srv.mu.Unlock()
	// A 100ms budget cannot be met; shed at the door.
	w := postSubmit(t, h, "alice", 8, "100")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("infeasible-deadline submit: %d %s, want 429", w.Code, w.Body)
	}
	// A generous budget is admitted.
	if w := postSubmit(t, h, "alice", 9, "60000"); w.Code != http.StatusAccepted {
		t.Fatalf("feasible-deadline submit: %d %s", w.Code, w.Body)
	}
	// An already-expired budget is a client error, not a shed.
	if w := postSubmit(t, h, "alice", 10, "0"); w.Code != http.StatusBadRequest {
		t.Fatalf("expired-budget submit: %d, want 400", w.Code)
	}
}

func waitTerminal(t *testing.T, svc *Service, id string) *Request {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		req, err := svc.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		switch req.Status {
		case StatusDone, StatusFailed, StatusRejected:
			return req
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("request %s never reached a terminal state", id)
	return nil
}

func TestServerProcessesAndDedups(t *testing.T) {
	srv, stub := newTestServer(t, ServerConfig{Workers: 2, AutoApprove: true})
	srv.Start()
	h := srv.Handler()

	w := postSubmit(t, h, "alice", 42, "")
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", w.Code, w.Body)
	}
	var first Request
	if err := json.Unmarshal(w.Body.Bytes(), &first); err != nil {
		t.Fatal(err)
	}
	done := waitTerminal(t, srv.Service(), first.ID)
	if done.Status != StatusDone {
		t.Fatalf("first request = %s (%s)", done.Status, done.Reason)
	}

	// An identical model from another tenant is answered from the
	// archive at the door: done immediately, no second back-end run.
	w2 := postSubmit(t, h, "bob", 42, "")
	if w2.Code != http.StatusAccepted {
		t.Fatalf("dedup submit: %d %s", w2.Code, w2.Body)
	}
	var second Request
	if err := json.Unmarshal(w2.Body.Bytes(), &second); err != nil {
		t.Fatal(err)
	}
	if second.Status != StatusDone || second.DedupOf != first.ID {
		t.Fatalf("dedup submit = %s dedup_of %q, want done of %s", second.Status, second.DedupOf, first.ID)
	}
	if stub.calls != 1 {
		t.Fatalf("backend ran %d times for identical models, want 1", stub.calls)
	}
	st := srv.Status()
	if st.DedupHits != 1 || st.Served != 2 {
		t.Fatalf("status = %+v, want 1 dedup hit of 2 served", st)
	}
}

func TestServerExpiresDeadRequestsWithoutBackendRun(t *testing.T) {
	srv, stub := newTestServer(t, ServerConfig{Workers: 1, AutoApprove: true})
	h := srv.Handler()
	// Accept with a 1ms budget while no workers run, then let the
	// budget die before starting the pool.
	w := postSubmit(t, h, "alice", 3, "1")
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", w.Code, w.Body)
	}
	var req Request
	if err := json.Unmarshal(w.Body.Bytes(), &req); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	srv.Start()
	got := waitTerminal(t, srv.Service(), req.ID)
	if got.Status != StatusFailed || got.Reason == "" {
		t.Fatalf("expired request = %s %q, want failed with a reason", got.Status, got.Reason)
	}
	if stub.calls != 0 {
		t.Fatalf("backend ran %d times for a dead request, want 0", stub.calls)
	}
	if st := srv.Status(); st.Expired != 1 {
		t.Fatalf("expired count = %d, want 1", st.Expired)
	}
}

func TestServerDegradedModeShrinksIntake(t *testing.T) {
	srv, _ := newTestServer(t, ServerConfig{QueueBound: 10, DegradedBound: 1, AutoApprove: true,
		Breaker: resilience.BreakerConfig{FailureThreshold: 1, OpenInterval: time.Hour}})
	h := srv.Handler()
	if srv.Status().Degraded {
		t.Fatal("fresh server reports degraded")
	}
	// Brown-out: the breaker trips.
	srv.breaker.Failure()
	st := srv.Status()
	if !st.Degraded || st.Breaker != "open" {
		t.Fatalf("status after trip = %+v, want degraded/open", st)
	}
	// Intake shrinks to DegradedBound: one queued entry, then shed.
	if w := postSubmit(t, h, "alice", 1, ""); w.Code != http.StatusAccepted {
		t.Fatalf("degraded submit 1: %d %s", w.Code, w.Body)
	}
	w := postSubmit(t, h, "alice", 2, "")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("degraded submit 2: %d, want 429", w.Code)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Fatalf("shed body: %s", w.Body)
	}
}

func TestServerRecoveryDrainsAcceptedWork(t *testing.T) {
	dir := t.TempDir()
	svc1, _ := newStubService(t, nil)
	srv1, err := NewServer(context.Background(), svc1, ServerConfig{
		JournalDir: dir, AutoApprove: true, Policy: fastPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	h := srv1.Handler()
	ids := make([]string, 0, 3)
	for i := 0; i < 3; i++ {
		w := postSubmit(t, h, fmt.Sprintf("tenant-%d", i%2), uint64(100+i), "")
		if w.Code != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, w.Code, w.Body)
		}
		var req Request
		if err := json.Unmarshal(w.Body.Bytes(), &req); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, req.ID)
	}
	// Claim one so the restart also exercises orphan recovery, then
	// stop without processing anything — the "crash".
	if _, ok, err := srv1.Queue().Claim(); err != nil || !ok {
		t.Fatal("claim before crash failed", err)
	}
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	svc2, _ := newStubService(t, nil)
	srv2, err := NewServer(context.Background(), svc2, ServerConfig{
		JournalDir: dir, AutoApprove: true, Policy: fastPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if st := srv2.Queue().Stats(); st.Queued != 3 || st.Claimed != 0 {
		t.Fatalf("recovered queue: %+v, want 3 queued (orphan requeued)", st)
	}
	srv2.Start()
	for _, id := range ids {
		if got := waitTerminal(t, svc2, id); got.Status != StatusDone {
			t.Fatalf("recovered request %s = %s (%s)", id, got.Status, got.Reason)
		}
	}
}
