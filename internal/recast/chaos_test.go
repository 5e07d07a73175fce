package recast

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"daspos/internal/faults"
	"daspos/internal/leshouches"
	"daspos/internal/resilience"
)

// Chaos drills for the request pipeline: with transient back-end faults
// injected at up to 30%, every request must still reach a terminal state —
// done after retries, or dead-lettered with its attempt history — and a
// journal replay after a simulated crash must hand back exactly the work
// that was in flight.

// flakyStub is a cheap back end whose every Process call consults a fault
// injector (op "process") before returning a canned result. Safe for
// concurrent workers.
type flakyStub struct {
	inj   *faults.Injector
	mu    sync.Mutex
	calls int
}

func (s *flakyStub) ConfigDigest() string { return "stub" }

func (s *flakyStub) Process(_ context.Context, model ModelSpec, record *leshouches.AnalysisRecord) (*Result, error) {
	s.mu.Lock()
	s.calls++
	s.mu.Unlock()
	if s.inj != nil {
		if out := s.inj.Decide("process"); out.Err != nil {
			return nil, out.Err
		}
	}
	return &Result{
		Analysis: record.Name, BackEnd: "stub",
		Generated: model.Events, Selected: model.Events / 2, Acceptance: 0.5,
	}, nil
}

// newStubService wires a flakyStub behind a service with one subscription.
func newStubService(t testing.TB, inj *faults.Injector) (*Service, *flakyStub) {
	t.Helper()
	stub := &flakyStub{inj: inj}
	svc := NewService(stub)
	if err := svc.Subscribe(Subscription{
		Name:        "GPD_2013_DIMUON_HIGHMASS",
		Description: "High-mass dimuon search",
		Record:      highMassSearch(),
	}); err != nil {
		t.Fatal(err)
	}
	return svc, stub
}

// fastPolicy is DefaultQueuePolicy with sleeps stubbed out so chaos runs
// finish in microseconds; the schedule (attempt counts, classification) is
// unchanged.
func fastPolicy() resilience.Policy {
	pol := DefaultQueuePolicy()
	pol.Sleep = func(ctx context.Context, _ time.Duration) error { return ctx.Err() }
	return pol
}

// submitApproved files n requests for the valid model with svc, whose
// journal is open, and approves each.
func submitApproved(t testing.TB, svc *Service, n int) []string {
	t.Helper()
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		req, err := svc.submit("GPD_2013_DIMUON_HIGHMASS", fmt.Sprintf("theorist-%d", i), "", validModel(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.accept(req.ID, 0); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, req.ID)
	}
	return ids
}

// submitAccepted submits n distinct models through the front door of an
// auto-approving server and returns the accepted IDs.
func submitAccepted(t *testing.T, srv *Server, n int) []string {
	t.Helper()
	h := srv.Handler()
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		// Distinct seeds: identical models would be answered by dedup.
		w := postSubmit(t, h, fmt.Sprintf("theorist-%d", i), uint64(1000+i), "")
		if w.Code != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, w.Code, w.Body)
		}
		var req Request
		if err := json.Unmarshal(w.Body.Bytes(), &req); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, req.ID)
	}
	return ids
}

// unbreakable keeps the circuit breaker out of a drill that is about the
// retry schedule: it swaps the breaker of srv, not yet started, for one
// that never opens, both in its gate and in its degraded signal.
func unbreakable(srv *Server) *Server {
	srv.breaker = resilience.NewBreaker(resilience.BreakerConfig{FailureThreshold: 1 << 30})
	srv.svc.backend.(*gatedBackend).breaker = srv.breaker
	return srv
}

func TestChaosQueueEveryRequestReachesTerminalState(t *testing.T) {
	const requests = 40
	inj := faults.NewInjector(0x5EC457).WithErrorRate(0.3)
	svc, _ := newStubService(t, inj)
	srv := unbreakable(serveService(t, svc, ServerConfig{Workers: 4, AutoApprove: true}))
	ids := submitAccepted(t, srv, requests)
	srv.Start()
	for _, id := range ids {
		waitTerminal(t, svc, id)
	}

	var done, failed int
	for _, id := range ids {
		req, err := svc.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		switch req.Status {
		case StatusDone:
			done++
			if req.Result == nil {
				t.Errorf("%s done without result", id)
			}
		case StatusFailed:
			failed++
			// A dead-lettered request carries its full attempt history.
			if len(req.Attempts) != fastPolicy().MaxAttempts {
				t.Errorf("%s dead-lettered with %d attempts, want %d",
					id, len(req.Attempts), fastPolicy().MaxAttempts)
			}
			for _, at := range req.Attempts {
				if at.Class != "transient" || at.Error == "" {
					t.Errorf("%s attempt %d: class=%q error=%q", id, at.N, at.Class, at.Error)
				}
			}
			if !strings.Contains(req.Reason, "injected fault") {
				t.Errorf("%s reason does not name the fault: %q", id, req.Reason)
			}
		default:
			t.Errorf("%s stuck in non-terminal state %s", id, req.Status)
		}
	}
	if done == 0 {
		t.Fatal("no request succeeded under 30% faults — retry is not retrying")
	}
	st := inj.Stats()
	if st.Errors == 0 {
		t.Fatal("chaos run injected no faults — test is vacuous")
	}
	t.Logf("chaos: %d done, %d dead-lettered, %d injected faults over %d ops",
		done, failed, st.Errors, st.Ops)
}

func TestRetryRecoversScheduledFaults(t *testing.T) {
	// Exactly MaxAttempts-1 scheduled failures: the last attempt succeeds,
	// and the request records the whole history.
	inj := faults.NewInjector(1)
	svc, _ := newStubService(t, inj)
	id := submitApproved(t, ledger(t, svc), 1)[0]
	pol := fastPolicy()
	inj.FailNext("process", pol.MaxAttempts-1)

	req, err := svc.processWithPolicy(context.Background(), id, pol)
	if err != nil {
		t.Fatalf("request should have recovered: %v", err)
	}
	if req.Status != StatusDone {
		t.Fatalf("status = %s, want done", req.Status)
	}
	if len(req.Attempts) != pol.MaxAttempts {
		t.Fatalf("attempts = %d, want %d", len(req.Attempts), pol.MaxAttempts)
	}
	last := req.Attempts[len(req.Attempts)-1]
	if last.Error != "" || last.Class != "" {
		t.Fatalf("final attempt should be clean: %+v", last)
	}
}

func TestPermanentErrorDeadLettersFirstStrike(t *testing.T) {
	svc := NewService(permanentBackend{})
	if err := svc.Subscribe(Subscription{
		Name: "A", Description: "d", Record: highMassSearch(),
	}); err != nil {
		t.Fatal(err)
	}
	req, err := ledger(t, svc).submit("A", "r", "", validModel(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.accept(req.ID, 0); err != nil {
		t.Fatal(err)
	}
	got, err := svc.processWithPolicy(context.Background(), req.ID, fastPolicy())
	if err == nil {
		t.Fatal("permanent failure reported success")
	}
	if got.Status != StatusFailed || len(got.Attempts) != 1 {
		t.Fatalf("want one-strike dead letter, got status=%s attempts=%d",
			got.Status, len(got.Attempts))
	}
	if got.Attempts[0].Class != "permanent" {
		t.Fatalf("attempt class = %q, want permanent", got.Attempts[0].Class)
	}
}

type permanentBackend struct{}

func (permanentBackend) ConfigDigest() string { return "perm" }
func (permanentBackend) Process(context.Context, ModelSpec, *leshouches.AnalysisRecord) (*Result, error) {
	return nil, resilience.MarkPermanent(errors.New("model outside preserved phase space"))
}

func TestQueueCancellationLeavesWorkInFlight(t *testing.T) {
	svc, _ := newStubService(t, nil)
	// A back end that blocks until cancelled, so every picked-up job is
	// mid-attempt when the pool dies.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	blocking := &blockingBackend{release: ctx.Done()}
	svc.backend = blocking

	dir := t.TempDir()
	cfg := ServerConfig{JournalDir: dir, Workers: 2, AutoApprove: true, Policy: fastPolicy()}
	srv, err := NewServer(ctx, svc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := submitAccepted(t, srv, 8)
	srv.Start()
	blocking.waitStarted(2)
	cancel()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// Every request is still approved — in flight or never picked up,
	// never half-transitioned — and the ledger hands all of it back.
	for _, id := range ids {
		req, err := svc.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if req.Status != StatusApproved {
			t.Errorf("%s left in %s after cancellation, want approved", id, req.Status)
		}
	}
	restored, _ := newStubService(t, nil)
	re := serveService(t, restored, cfg)
	if st := re.Status().Queue; st.Queued != len(ids) || st.Claimed != 0 {
		t.Fatalf("recovered queue: %+v, want all %d queued", st, len(ids))
	}
	re.Start()
	for _, id := range ids {
		if got := waitTerminal(t, restored, id); got.Status != StatusDone {
			t.Errorf("recovered %s ended %s", id, got.Status)
		}
	}
}

// blockingBackend parks Process until the release channel closes, then
// reports the cancellation as the context error would.
type blockingBackend struct {
	release <-chan struct{}
	mu      sync.Mutex
	started int
}

func (b *blockingBackend) ConfigDigest() string { return "blocking" }

func (b *blockingBackend) Process(context.Context, ModelSpec, *leshouches.AnalysisRecord) (*Result, error) {
	b.mu.Lock()
	b.started++
	b.mu.Unlock()
	<-b.release
	return nil, context.Canceled
}

func (b *blockingBackend) waitStarted(n int) {
	for {
		b.mu.Lock()
		s := b.started
		b.mu.Unlock()
		if s >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

func TestJournalRecoversInFlightWorkAfterCrash(t *testing.T) {
	inj := faults.NewInjector(3)
	svc, _ := newStubService(t, inj)
	cfg := ServerConfig{JournalDir: t.TempDir(), AutoApprove: true}
	srv := unbreakable(serveService(t, svc, cfg))
	ids := submitAccepted(t, srv, 5)
	// Two complete, one dead-letters, two stay in flight — then the
	// process "crashes" with the ledger as the only survivor.
	if _, err := runOnce(svc, ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := runOnce(svc, ids[1]); err != nil {
		t.Fatal(err)
	}
	inj.FailNext("process", 10)
	if _, err := svc.processWithPolicy(context.Background(), ids[2], fastPolicy()); err == nil {
		t.Fatal("expected dead letter")
	}
	if !srv.Status().JournalOK {
		t.Fatal("the request journal failed a write")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Crash-truncated tail: the final line is cut mid-write.
	f, err := os.OpenFile(filepath.Join(cfg.JournalDir, "requests.log"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id":"req-0000`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	restored, _ := newStubService(t, faults.NewInjector(4))
	re := serveService(t, restored, cfg)
	// Terminal states and histories survived, and the scheduler owes
	// nothing for them.
	for _, id := range ids[:2] {
		req, err := restored.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if req.Status != StatusDone || req.Result == nil {
			t.Fatalf("%s lost its result: status=%s", id, req.Status)
		}
	}
	dead, err := restored.Get(ids[2])
	if err != nil {
		t.Fatal(err)
	}
	if dead.Status != StatusFailed || len(dead.Attempts) != fastPolicy().MaxAttempts {
		t.Fatalf("dead letter lost history: status=%s attempts=%d", dead.Status, len(dead.Attempts))
	}
	if st := re.Status().Queue; st.Queued != 2 || st.Terminal != 3 {
		t.Fatalf("recovered queue: %+v, want exactly the two in-flight requests queued", st)
	}

	// The recovered in-flight work completes.
	re.Start()
	for _, id := range ids[3:] {
		if req := waitTerminal(t, restored, id); req.Status != StatusDone {
			t.Fatalf("recovered %s ended %s, want done", id, req.Status)
		}
	}

	// New submissions do not collide with replayed IDs.
	fresh, err := restored.submit("GPD_2013_DIMUON_HIGHMASS", "r", "", validModel(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if fresh.ID == id {
			t.Fatalf("post-replay submission reused ID %s", id)
		}
	}
}

// The next two prove the request ledger is wired to package journal,
// whose own tests cover the torn-tail and corruption policy in full.

func TestReplayJournalRejectsMidStreamCorruption(t *testing.T) {
	dir := t.TempDir()
	log := "{broken json\n" + `{"id":"req-000001","status":"submitted"}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "requests.log"), []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	svc, _ := newStubService(t, nil)
	if _, err := NewServer(context.Background(), svc, ServerConfig{JournalDir: dir}); err == nil {
		t.Fatal("mid-stream corruption accepted")
	}
}

func TestReplayJournalDropsTornFinalRecord(t *testing.T) {
	svc, _ := newStubService(t, nil)
	cfg := ServerConfig{JournalDir: t.TempDir(), AutoApprove: true}
	srv := serveService(t, svc, cfg)
	ids := submitAccepted(t, srv, 3)
	if _, err := runOnce(svc, ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// The final record is ids[0]'s "done" snapshot. Tear it mid-write.
	if err := faults.TearFinalRecord(filepath.Join(cfg.JournalDir, "requests.log")); err != nil {
		t.Fatal(err)
	}
	restored, _ := newStubService(t, nil)
	re := serveService(t, restored, cfg)
	// ids[0] reverted to its last intact snapshot (approved) — losing the
	// torn completion is safe because re-processing is idempotent; losing
	// earlier records is not.
	if req, err := restored.Get(ids[0]); err != nil || req.Status != StatusApproved {
		t.Fatalf("torn completion applied: %+v %v, want approved", req, err)
	}
	re.Start()
	for _, id := range ids {
		if req := waitTerminal(t, restored, id); req.Status != StatusDone {
			t.Fatalf("%s ended %s after the tear", id, req.Status)
		}
	}
}
