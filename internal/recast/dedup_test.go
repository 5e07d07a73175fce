package recast

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"daspos/internal/conditions"
	"daspos/internal/leshouches"
)

func TestDedupKeyCanonical(t *testing.T) {
	m := ModelSpec{Process: "zprime", MassGeV: 1000, Events: 40, Seed: 7}
	k1 := DedupKey("A", m, "cfg")
	if k2 := DedupKey("A", m, "cfg"); k2 != k1 {
		t.Fatal("identical inputs produced different keys")
	}
	if len(k1) != 64 {
		t.Fatalf("key length %d, want 64 hex chars", len(k1))
	}
	// Every field must be load-bearing.
	variants := []struct {
		name     string
		analysis string
		model    ModelSpec
		cfg      string
	}{
		{"analysis", "B", m, "cfg"},
		{"mass", "A", ModelSpec{Process: "zprime", MassGeV: 1001, Events: 40, Seed: 7}, "cfg"},
		{"events", "A", ModelSpec{Process: "zprime", MassGeV: 1000, Events: 41, Seed: 7}, "cfg"},
		{"seed", "A", ModelSpec{Process: "zprime", MassGeV: 1000, Events: 40, Seed: 8}, "cfg"},
		{"xsec", "A", ModelSpec{Process: "zprime", MassGeV: 1000, Events: 40, Seed: 7, CrossSectionPb: 1}, "cfg"},
		{"config", "A", m, "cfg2"},
	}
	for _, v := range variants {
		if DedupKey(v.analysis, v.model, v.cfg) == k1 {
			t.Fatalf("changing %s did not change the key", v.name)
		}
	}
	// Length-prefixed fields: ("ab","c") must not collide with ("a","bc").
	if DedupKey("ab", m, "c") == DedupKey("a", m, "bc") {
		t.Fatal("field boundaries not separated in the hash")
	}
}

func TestCompleteFromArchive(t *testing.T) {
	svc, stub := newStubService(t, nil)
	ids := submitApproved(t, ledger(t, svc), 2)
	primary, follower := ids[0], ids[1]

	// The primary must be done first.
	if _, err := svc.completeFromArchive(follower, primary); err == nil {
		t.Fatal("archive completion accepted an unfinished primary")
	}
	if _, err := runOnce(svc, primary); err != nil {
		t.Fatal(err)
	}
	got, err := svc.completeFromArchive(follower, primary)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusDone || got.DedupOf != primary {
		t.Fatalf("follower = %s dedup_of %q, want done of %s", got.Status, got.DedupOf, primary)
	}
	if got.Result == nil || got.Result.Generated != validModel().Events {
		t.Fatalf("follower result = %+v, want the primary's archived numbers", got.Result)
	}
	if stub.calls != 1 {
		t.Fatalf("backend ran %d times, want 1 (follower served from archive)", stub.calls)
	}
	// The copy must be independent of the primary's stored result.
	got.Result.Generated = -1
	re, _ := svc.Get(follower)
	if re.Result.Generated != validModel().Events {
		t.Fatal("archived copy aliases the primary's result")
	}
}

func TestExpireDeadLettersApprovedOnly(t *testing.T) {
	svc, stub := newStubService(t, nil)
	id := submitApproved(t, ledger(t, svc), 1)[0]
	if err := svc.expire(id, "deadline expired in queue"); err != nil {
		t.Fatal(err)
	}
	got, _ := svc.Get(id)
	if got.Status != StatusFailed || !strings.Contains(got.Reason, "deadline") {
		t.Fatalf("expired request = %s %q", got.Status, got.Reason)
	}
	if stub.calls != 0 {
		t.Fatal("expiry ran the backend")
	}
	// Terminal states cannot expire.
	if err := svc.expire(id, "again"); err == nil {
		t.Fatal("expired a failed request")
	}
}

func TestBackendHonorsContext(t *testing.T) {
	svc, _ := newStubService(t, nil)
	id := submitApproved(t, ledger(t, svc), 1)[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// A dead context reaching processWithPolicy must leave the request
	// approved (in flight) so recovery can re-run it.
	if _, err := svc.processWithPolicy(ctx, id, fastPolicy()); err == nil {
		t.Fatal("cancelled processing reported success")
	}
	got, _ := svc.Get(id)
	if got.Status != StatusApproved {
		t.Fatalf("request after cancellation = %s, want approved", got.Status)
	}
}

// chainStub is a canned back end that signs its results with its name and
// digests to it — or to digest, when a test lends it a real back end's — so
// a test can tell which chain computed a number.
type chainStub struct {
	name   string
	digest string
	calls  atomic.Int64
}

func (s *chainStub) ConfigDigest() string {
	if s.digest != "" {
		return s.digest
	}
	return "chain:" + s.name
}

func (s *chainStub) Process(_ context.Context, model ModelSpec, record *leshouches.AnalysisRecord) (*Result, error) {
	s.calls.Add(1)
	return &Result{Analysis: record.Name, BackEnd: s.name, Generated: model.Events}, nil
}

func openChainServer(t *testing.T, dir string, stub *chainStub) *Server {
	t.Helper()
	svc := NewService(stub)
	if err := svc.Subscribe(Subscription{Name: "GPD_2013_DIMUON_HIGHMASS", Record: highMassSearch()}); err != nil {
		t.Fatal(err)
	}
	return serveService(t, svc, ServerConfig{JournalDir: dir, Workers: 1, AutoApprove: true})
}

func submitModel(t *testing.T, srv *Server, tenant string, seed uint64) Request {
	t.Helper()
	w := postSubmit(t, srv.Handler(), tenant, seed, "")
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", w.Code, w.Body)
	}
	var req Request
	if err := json.Unmarshal(w.Body.Bytes(), &req); err != nil {
		t.Fatal(err)
	}
	return req
}

// TestReopenWithDifferentBackendDoesNotDedup: a journal directory filled by
// one chain and reopened over another must not answer the second chain's
// submissions with the first chain's archived numbers — neither for a new
// request, nor for one the first server accepted and never ran — while a
// reopen over the same chain keeps answering from the archive.
func TestReopenWithDifferentBackendDoesNotDedup(t *testing.T) {
	dir := t.TempDir()
	old := &chainStub{name: "fullsim-v1"}
	srv1 := openChainServer(t, dir, old)
	srv1.Start()
	first := submitModel(t, srv1, "alice", 42)
	if done := waitTerminal(t, srv1.Service(), first.ID); done.Status != StatusDone || done.Result.BackEnd != "fullsim-v1" {
		t.Fatalf("first request: %+v", done)
	}
	// Stop the workers, then accept one more: journaled as approved and
	// queued under the first chain's key, run by nobody.
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	srv1 = openChainServer(t, dir, old)
	stranded := submitModel(t, srv1, "alice", 77)
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	// The same directory behind a different chain.
	bridge := &chainStub{name: "bridge"}
	srv2 := openChainServer(t, dir, bridge)
	srv2.Start()
	if done := waitTerminal(t, srv2.Service(), stranded.ID); done.Status != StatusDone || done.Result.BackEnd != "bridge" || done.DedupOf != "" {
		t.Fatalf("request stranded across the reopen: %+v result %+v, want a run of the new back end", done, done.Result)
	}
	again := submitModel(t, srv2, "bob", 42)
	done := waitTerminal(t, srv2.Service(), again.ID)
	if done.Status != StatusDone || done.DedupOf != "" || done.Result.BackEnd != "bridge" {
		t.Fatalf("the same analysis and model over a new back end: dedup_of %q result %+v, want a run of the new back end", done.DedupOf, done.Result)
	}
	if st := srv2.Status(); st.DedupHits != 0 {
		t.Fatalf("%d dedup hits across a change of back end, want 0", st.DedupHits)
	}
	if got := bridge.calls.Load(); got != 2 {
		t.Fatalf("the new back end ran %d times, want 2", got)
	}
	// Within the new chain the archive answers as ever — and under the new
	// chain's key, which the stranded request now carries.
	for _, seed := range []uint64{42, 77} {
		if dup := submitModel(t, srv2, "carol", seed); dup.Status != StatusDone || dup.DedupOf == "" || dup.Result.BackEnd != "bridge" {
			t.Fatalf("seed %d resubmitted to the new chain: %+v, want its own archived result", seed, dup)
		}
	}
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}

	// Back over the first chain: its own archive still answers for what it
	// ran, and only for that.
	srv3 := openChainServer(t, dir, old)
	srv3.Start()
	if dup := submitModel(t, srv3, "dave", 42); dup.Status != StatusDone || dup.DedupOf != first.ID || dup.Result.BackEnd != "fullsim-v1" {
		t.Fatalf("seed 42 back on the first chain: %+v, want the archived result of %s", dup, first.ID)
	}
	rerun := submitModel(t, srv3, "dave", 77)
	if done := waitTerminal(t, srv3.Service(), rerun.ID); done.DedupOf != "" || done.Result.BackEnd != "fullsim-v1" {
		t.Fatalf("seed 77 on the first chain, which never ran it: %+v result %+v", done, done.Result)
	}
}

// TestFullSimDigestTellsDetectorsAndCalibrationsApart: the full-simulation
// back end's digest must name the chain, not only its calibration's tag. One
// journal directory is served in turn by back ends keyed like a
// full-simulation chain, then like one whose detector differs in a single
// layer radius, then like one whose calibration differs in a single constant
// published under the same tag and run: the same analysis and model must run
// on each, never be answered from another's archive. Back on the first chain
// — at a different worker count, which is not part of the digest — the
// request it finished before the reopens still answers from the archive.
func TestFullSimDigestTellsDetectorsAndCalibrationsApart(t *testing.T) {
	base := newFullSimBackend(t)

	radius := newFullSimBackend(t)
	radius.Det.Layers[3].Radius += 1

	constant := newFullSimBackend(t)
	recalibrated := conditions.NewDB()
	snap := constant.CondDB.Snapshot(constant.Tag, constant.Run)
	for _, folder := range snap.Folders() {
		published, err := snap.Lookup(folder)
		if err != nil {
			t.Fatal(err)
		}
		payload := conditions.Payload{}
		for k, v := range published {
			payload[k] = v
		}
		if folder == conditions.FolderECalScale {
			payload["scale"] *= 1.01
		}
		if err := recalibrated.Store(folder, constant.Tag, conditions.IoV{First: constant.Run, Last: constant.Run}, payload); err != nil {
			t.Fatal(err)
		}
	}
	constant.CondDB = recalibrated

	sameChain := newFullSimBackend(t)
	sameChain.Workers = 4
	if sameChain.ConfigDigest() != base.ConfigDigest() {
		t.Fatal("the worker count reached the digest: it cannot change a result")
	}

	dir := t.TempDir()
	// serve opens the directory behind a stub keyed like backend, submits the
	// one model, and returns the finished request and how often the stub ran.
	serve := func(name string, backend *FullSimBackend) (*Request, int64) {
		t.Helper()
		stub := &chainStub{name: name, digest: backend.ConfigDigest()}
		srv := openChainServer(t, dir, stub)
		srv.Start()
		req := submitModel(t, srv, name, 42)
		done := waitTerminal(t, srv.Service(), req.ID)
		if st := srv.Status(); name != "again" && st.DedupHits != 0 {
			t.Fatalf("%s: %d dedup hits, want 0", name, st.DedupHits)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		return done, stub.calls.Load()
	}
	first, calls := serve("base", base)
	if first.Status != StatusDone || calls != 1 {
		t.Fatalf("first request: %+v after %d runs", first, calls)
	}
	for name, backend := range map[string]*FullSimBackend{"radius": radius, "constant": constant} {
		done, calls := serve(name, backend)
		if done.Status != StatusDone || done.DedupOf != "" || done.Result.BackEnd != name || calls != 1 {
			t.Fatalf("back end differing in one %s: dedup_of %q, result %+v, %d runs — want a run of its own chain", name, done.DedupOf, done.Result, calls)
		}
	}
	again, calls := serve("again", sameChain)
	if again.Status != StatusDone || again.DedupOf != first.ID || again.Result.BackEnd != "base" || calls != 0 {
		t.Fatalf("back on the first chain: dedup_of %q, result %+v, %d runs — want the archived result of %s", again.DedupOf, again.Result, calls, first.ID)
	}
}
