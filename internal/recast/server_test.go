package recast

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
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

// TestArchiveAnswerTakesNoToken: the rate limit meters back-end work, and a
// submission the archive already answers makes none. A tenant with a
// one-token bucket on a stopped clock spends it on one model, then
// resubmits that model five times at once: all five are answered from the
// archive, none is shed. A new model is still shed.
func TestArchiveAnswerTakesNoToken(t *testing.T) {
	clk := &serverClock{t: time.Unix(5000, 0)}
	srv, _ := newTestServer(t, ServerConfig{
		Workers: 1, TenantRate: 1, TenantBurst: 1, AutoApprove: true, Now: clk.now,
	})
	srv.Start()
	h := srv.Handler()
	first := postSubmit(t, h, "alice", 42, "")
	if first.Code != http.StatusAccepted {
		t.Fatalf("first submit: %d %s", first.Code, first.Body)
	}
	var primary Request
	if err := json.Unmarshal(first.Body.Bytes(), &primary); err != nil {
		t.Fatal(err)
	}
	if done := waitTerminal(t, srv.Service(), primary.ID); done.Status != StatusDone {
		t.Fatalf("first request = %s (%s)", done.Status, done.Reason)
	}

	model := validModel()
	model.Seed = 42
	body, err := json.Marshal(submitBody{Analysis: "GPD_2013_DIMUON_HIGHMASS", Requester: "alice", Model: model})
	if err != nil {
		t.Fatal(err)
	}
	answers := make([]*httptest.ResponseRecorder, 5)
	var wg sync.WaitGroup
	for i := range answers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			answers[i] = httptest.NewRecorder()
			h.ServeHTTP(answers[i], httptest.NewRequest(http.MethodPost, "/requests", bytes.NewReader(body)))
		}()
	}
	wg.Wait()
	for i, w := range answers {
		var got Request
		if w.Code != http.StatusAccepted || json.Unmarshal(w.Body.Bytes(), &got) != nil ||
			got.Status != StatusDone || got.DedupOf != primary.ID {
			t.Fatalf("resubmission %d: %d %s, want 202 done as dedup of %s", i, w.Code, w.Body, primary.ID)
		}
	}
	if w := postSubmit(t, h, "alice", 43, ""); w.Code != http.StatusTooManyRequests {
		t.Fatalf("a new model with the bucket empty: %d %s, want 429", w.Code, w.Body)
	}
	if st := srv.Status(); st.Shed != 1 || st.DedupHits != 5 || st.Tenants["alice"].Admitted != 6 {
		t.Fatalf("status = %+v, want 1 shed, 5 dedup hits, 6 admitted", st)
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

// TestServerBreakerReadsTheServerClock: the back-end breaker runs on the
// clock the server is given, so admission and Status agree about time.
func TestServerBreakerReadsTheServerClock(t *testing.T) {
	clk := &serverClock{t: time.Unix(5000, 0)}
	srv, _ := newTestServer(t, ServerConfig{Now: clk.now})
	for i := 0; i < 5; i++ {
		srv.breaker.Failure()
	}
	if st := srv.Status().Breaker; st != "open" {
		t.Fatalf("breaker after five failures = %s, want open", st)
	}
	clk.advance(999 * time.Millisecond)
	if srv.breaker.Allow() {
		t.Fatal("a probe was admitted before the server's clock reached the open interval")
	}
	clk.advance(time.Millisecond)
	if !srv.breaker.Allow() {
		t.Fatal("no probe admitted once the server's clock passed the open interval")
	}
	if st := srv.Status().Breaker; st != "half-open" {
		t.Fatalf("breaker after the probe's admission = %s, want half-open", st)
	}
}

func TestServerDegradedModeShrinksIntake(t *testing.T) {
	clk := &serverClock{t: time.Unix(5000, 0)}
	srv, _ := newTestServer(t, ServerConfig{QueueBound: 4, AutoApprove: true, Now: clk.now})
	h := srv.Handler()
	if srv.Status().Degraded {
		t.Fatal("fresh server reports degraded")
	}
	// Brown-out: five straight failures trip the breaker, and it stays
	// open while the server's clock stands still.
	for i := 0; i < 5; i++ {
		srv.breaker.Failure()
	}
	st := srv.Status()
	if !st.Degraded || st.Breaker != "open" {
		t.Fatalf("status after trip = %+v, want degraded/open", st)
	}
	// Intake shrinks to a quarter of QueueBound: one queued entry, then shed.
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
	if _, ok := srv1.pq.claim(); !ok {
		t.Fatal("claim before crash failed")
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
	if st := srv2.Status().Queue; st.Queued != 3 || st.Claimed != 0 {
		t.Fatalf("recovered queue: %+v, want 3 queued (orphan requeued)", st)
	}
	srv2.Start()
	for _, id := range ids {
		if got := waitTerminal(t, svc2, id); got.Status != StatusDone {
			t.Fatalf("recovered request %s = %s (%s)", id, got.Status, got.Reason)
		}
	}
}

// TestFailedAcceptanceLeavesNothingToRun: approving and queueing are one
// append, so an acceptance the journal cannot record answers 5xx and leaves
// the request submitted — waiting for the experiment, owed by nobody. With
// two journals the approval could land in one and the enqueue fail in the
// other: the client was told 500 while the ledger held approved work that
// some later restart ran anyway. (At the parent commit, close the queue's
// journal in place of the ledger's and this test fails on every assertion
// after the status code.)
func TestFailedAcceptanceLeavesNothingToRun(t *testing.T) {
	cfg := ServerConfig{JournalDir: t.TempDir()}
	svc, _ := newStubService(t, nil)
	srv := serveService(t, svc, cfg)
	h := srv.Handler()
	var req Request
	if err := json.Unmarshal(postSubmit(t, h, "alice", 1, "").Body.Bytes(), &req); err != nil {
		t.Fatal(err)
	}
	if err := svc.closeJournal(); err != nil {
		t.Fatal(err)
	}
	if w := postApprove(h, req.ID); w.Code < 500 {
		t.Fatalf("approval the journal cannot record: %d %s, want 5xx", w.Code, w.Body)
	}
	if got, _ := svc.Get(req.ID); got.Status != StatusSubmitted {
		t.Fatalf("failed acceptance left the request %s, want submitted", got.Status)
	}
	if st := srv.Status(); st.JournalOK || st.Queue.Queued != 0 {
		t.Fatalf("status after the failed acceptance: %+v, want journal_ok false and nothing queued", st)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	restarted, stub := newStubService(t, nil)
	re := serveService(t, restarted, cfg)
	if st := re.Status().Queue; st.Queued != 0 {
		t.Fatalf("reopened queue: %+v, want nothing owed", st)
	}
	runQueued(re)
	if got, _ := restarted.Get(req.ID); got.Status != StatusSubmitted || stub.calls != 0 {
		t.Fatalf("after the reopen the request is %s and the back end ran %d times, want submitted and 0", got.Status, stub.calls)
	}
}

// TestManualApprovalKeepsSubmitDeadline: the budget a requester sends with a
// submission is journaled with it and still binds when the experiment
// approves — work nobody is waiting for any more is expired, not computed.
// The parent decoded the header, used it for admission and dropped it.
func TestManualApprovalKeepsSubmitDeadline(t *testing.T) {
	clk := &serverClock{t: time.Unix(5000, 0)}
	srv, stub := newTestServer(t, ServerConfig{Workers: 1, Now: clk.now})
	h := srv.Handler()
	w := postSubmit(t, h, "alice", 3, "50")
	if w.Code != http.StatusCreated {
		t.Fatalf("submit: %d %s", w.Code, w.Body)
	}
	var req Request
	if err := json.Unmarshal(w.Body.Bytes(), &req); err != nil {
		t.Fatal(err)
	}
	clk.advance(time.Second) // the experiment deliberates
	if w := postApprove(h, req.ID); w.Code != http.StatusOK {
		t.Fatalf("approve: %d %s", w.Code, w.Body)
	}
	srv.Start()
	got := waitTerminal(t, srv.Service(), req.ID)
	if got.Status != StatusFailed || got.Reason != "deadline expired in queue" {
		t.Fatalf("request approved after its deadline ended %s %q, want failed: deadline expired in queue", got.Status, got.Reason)
	}
	if stub.calls != 0 {
		t.Fatalf("back end ran %d times for a request nobody waits for", stub.calls)
	}
}

func journalLines(t *testing.T, dir string) int {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "requests.log"))
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Count(data, []byte("\n"))
}

// TestServedRequestIsFourAppends pins the cost of the front door in the
// unit that sets its latency: one fsynced line for each of submit, approve
// (which is also the enqueue), the attempt and the result — in one file —
// and three for a request answered from the archive.
func TestServedRequestIsFourAppends(t *testing.T) {
	dir := t.TempDir()
	srv, _ := newTestServer(t, ServerConfig{JournalDir: dir, Workers: 1, AutoApprove: true})
	srv.Start()
	first := submitModel(t, srv, "alice", 42)
	if done := waitTerminal(t, srv.Service(), first.ID); done.Status != StatusDone || done.DedupOf != "" {
		t.Fatalf("first request: %+v", done)
	}
	if got := journalLines(t, dir); got != 4 {
		t.Fatalf("a back-end-served request appended %d lines, want 4", got)
	}
	if dup := submitModel(t, srv, "bob", 42); dup.Status != StatusDone || dup.DedupOf != first.ID {
		t.Fatalf("follower: %+v, want the archived result of %s", dup, first.ID)
	}
	if got := journalLines(t, dir) - 4; got != 3 {
		t.Fatalf("a request answered from the archive appended %d lines, want 3", got)
	}
	if names := dirNames(t, dir); len(names) != 1 || names[0] != "requests.log" {
		t.Fatalf("journal directory holds %v, want requests.log alone", names)
	}
}

// TestRequestJSONUnchanged: the journal record wraps the request, the wire
// does not — GET /requests/{id} and GET /status carry exactly the members
// they carried before the ledger took the scheduler's state in.
func TestRequestJSONUnchanged(t *testing.T) {
	srv, _ := newTestServer(t, ServerConfig{Workers: 1, AutoApprove: true})
	srv.Start()
	h := srv.Handler()
	first := submitModel(t, srv, "alice", 42)
	waitTerminal(t, srv.Service(), first.ID)
	follower := submitModel(t, srv, "bob", 42)
	queued := postSubmit(t, h, "carol", 43, "60000") // a deadline on the record

	members := func(path string) map[string]json.RawMessage {
		t.Helper()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		var m map[string]json.RawMessage
		if err := json.Unmarshal(w.Body.Bytes(), &m); w.Code != http.StatusOK || err != nil {
			t.Fatalf("GET %s: %d %s", path, w.Code, w.Body)
		}
		return m
	}
	names := func(m map[string]json.RawMessage) string {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return strings.Join(keys, " ")
	}
	if got, want := names(members("/requests/"+first.ID)), "analysis attempts id model requester result status"; got != want {
		t.Errorf("a served request's members: %s\nwant: %s", got, want)
	}
	if got, want := names(members("/requests/"+follower.ID)), "analysis dedup_of id model requester result status"; got != want {
		t.Errorf("a follower's members: %s\nwant: %s", got, want)
	}
	var accepted map[string]json.RawMessage
	if err := json.Unmarshal(queued.Body.Bytes(), &accepted); queued.Code != http.StatusAccepted || err != nil {
		t.Fatalf("submit with a budget: %d %s", queued.Code, queued.Body)
	}
	if _, leaked := accepted["queue"]; leaked {
		t.Errorf("the 202 body carries the journal's queue member: %s", queued.Body)
	}
	status := members("/status")
	if got, want := names(status), "admitted breaker dedup_hits degraded ewma_service_ms expired failed journal_ok queue served shed tenants workers"; got != want {
		t.Errorf("/status members: %s\nwant: %s", got, want)
	}
	var queue map[string]json.RawMessage
	if err := json.Unmarshal(status["queue"], &queue); err != nil {
		t.Fatal(err)
	}
	if got, want := names(queue), "by_tenant claimed queued terminal"; got != want {
		t.Errorf("/status queue members: %s\nwant: %s", got, want)
	}
}
