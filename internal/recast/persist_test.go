package recast

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"daspos/internal/faults"
)

func TestLedgerRoundTrip(t *testing.T) {
	cfg := ServerConfig{JournalDir: t.TempDir()}
	// One request in each interesting state. The rejected one comes from a
	// journal line: no route rejects a request any more, but older journals
	// hold rejected ones.
	rejectedLine := `{"id":"req-000001","analysis":"GPD_2013_DIMUON_HIGHMASS","requester":"b","model":{"process":"zprime","mass_gev":1000,"events":40,"seed":7},"status":"rejected","reason":"duplicate of published limits"}` + "\n"
	if err := os.WriteFile(filepath.Join(cfg.JournalDir, "requests.log"), []byte(rejectedLine), 0o644); err != nil {
		t.Fatal(err)
	}
	rejected := &Request{ID: "req-000001"}
	svc := newFullSimService(t)
	srv := serveService(t, svc, cfg)
	done, _ := svc.submit("GPD_2013_DIMUON_HIGHMASS", "a", "", validModel(), 0)
	_, _ = svc.accept(done.ID, 0)
	if _, err := runOnce(svc, done.ID); err != nil {
		t.Fatal(err)
	}
	pending, _ := svc.submit("GPD_2013_DIMUON_HIGHMASS", "c", "", validModel(), 0)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh service after restart: the experiment re-subscribes, then
	// the front door replays the ledger.
	restarted := newFullSimService(t)
	serveService(t, restarted, cfg)
	got, err := restarted.Get(done.ID)
	if err != nil || got.Status != StatusDone || got.Result == nil {
		t.Fatalf("done request after restart: %+v %v", got, err)
	}
	gotRej, _ := restarted.Get(rejected.ID)
	if gotRej.Status != StatusRejected || gotRej.Reason == "" {
		t.Fatalf("rejected request after restart: %+v", gotRej)
	}
	// The pending request can continue its lifecycle.
	if _, err := restarted.accept(pending.ID, 0); err != nil {
		t.Fatal(err)
	}
	finished, err := runOnce(restarted, pending.ID)
	if err != nil {
		t.Fatal(err)
	}
	if finished.Status != StatusDone {
		t.Fatalf("resumed request: %+v", finished)
	}
	// New submissions continue the ID sequence, no collisions.
	fresh, err := restarted.submit("GPD_2013_DIMUON_HIGHMASS", "d", "", validModel(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID != "req-000004" {
		t.Fatalf("sequence not resumed: %s", fresh.ID)
	}
}

// TestRequestJournalReplayValidation pins what replay refuses: a record
// without an ID or with a status the state machine does not know, and a
// service a Server already opened. A repeated ID is not an error —
// the journal is a stream of snapshots and the last one wins.
func TestRequestJournalReplayValidation(t *testing.T) {
	open := func(log string) (*Service, error) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "requests.log"), []byte(log), 0o644); err != nil {
			t.Fatal(err)
		}
		svc, _ := newStubService(t, nil)
		srv, err := NewServer(context.Background(), svc, ServerConfig{JournalDir: dir})
		if err == nil {
			t.Cleanup(func() { srv.Close() })
		}
		return svc, err
	}
	if _, err := open(`{"id":"req-000001","status":"warp"}` + "\n"); err == nil {
		t.Fatal("unknown status replayed")
	}
	if _, err := open(`{"id":"","status":"submitted"}` + "\n"); err == nil {
		t.Fatal("empty ID replayed")
	}
	svc, err := open(`{"id":"req-000007","status":"submitted"}` + "\n" + `{"id":"req-000007","status":"rejected","reason":"r"}` + "\n")
	if err != nil {
		t.Fatal(err)
	}
	if got := svc.records(); len(got) != 1 || got[0].Status != StatusRejected {
		t.Fatalf("last snapshot did not win: %+v", got)
	}
	// A service belongs to one server: it refuses a second ledger.
	if _, err := NewServer(context.Background(), svc, ServerConfig{JournalDir: t.TempDir()}); err == nil {
		t.Fatal("a second ledger opened into a service a server holds")
	}
}

// TestServerReopensAfterTornRequestLog is the regression test for the
// concatenated-tail defect: requests.log used to be reopened for append
// without cutting a torn final line away, so the next acknowledged
// request was glued onto the partial one and the restart after that
// failed on a corrupt line — every acknowledged request unreachable.
func TestServerReopensAfterTornRequestLog(t *testing.T) {
	cfg := ServerConfig{JournalDir: t.TempDir(), AutoApprove: true}
	reopen := func() (*Server, *Service) {
		svc, _ := newStubService(t, nil)
		return serveService(t, svc, cfg), svc
	}
	srv, _ := reopen()
	ids := submitAccepted(t, srv, 3)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// The final record is ids[2]'s "approved" snapshot: the tear reverts
	// that one request to submitted; every other record is untorn.
	if err := faults.TearFinalRecord(filepath.Join(cfg.JournalDir, "requests.log")); err != nil {
		t.Fatal(err)
	}

	srv, _ = reopen()
	for i := 0; i < 2; i++ {
		w := postSubmit(t, srv.Handler(), "late", uint64(2000+i), "")
		if w.Code != http.StatusAccepted {
			t.Fatalf("submit %d after the tear: %d %s", i, w.Code, w.Body)
		}
		var req Request
		if err := json.Unmarshal(w.Body.Bytes(), &req); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, req.ID)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// The third open is the one that used to fail on the glued line.
	srv, svc := reopen()
	srv.Start()
	if got := len(svc.records()); got != len(ids) {
		t.Fatalf("%d requests after the third open, want %d", got, len(ids))
	}
	for i, id := range ids {
		if i == 2 {
			// Its approval was the torn record: it is back to submitted,
			// waiting for the experiment, not lost.
			if req, err := svc.Get(id); err != nil || req.Status != StatusSubmitted {
				t.Fatalf("torn approval: %+v %v, want submitted", req, err)
			}
			continue
		}
		if req := waitTerminal(t, svc, id); req.Status != StatusDone {
			t.Fatalf("%s ended %s", id, req.Status)
		}
	}
}

// TestSubmitWithClosedJournalIsRefused: the ledger journals before it
// applies, so a request that cannot reach the disk is neither
// acknowledged nor remembered.
func TestSubmitWithClosedJournalIsRefused(t *testing.T) {
	srv, _ := newTestServer(t, ServerConfig{AutoApprove: true})
	if err := srv.Service().closeJournal(); err != nil {
		t.Fatal(err)
	}
	w := postSubmit(t, srv.Handler(), "alice", 1, "")
	if w.Code < 500 {
		t.Fatalf("submit with the request journal closed: %d %s, want 5xx", w.Code, w.Body)
	}
	if got := srv.svc.records(); len(got) != 0 {
		t.Fatalf("unjournaled request kept in the ledger: %+v", got)
	}
	if srv.Status().JournalOK {
		t.Fatal("status still reports the journal healthy")
	}
}

// TestParentJournalsReopenUnchanged opens a directory in the two-file
// layout, written by the commit before the journals moved onto package
// journal — a `daspos-recast serve` run with manual approvals, then an
// auto-approving run killed with SIGKILL mid-request — and demands the state
// that commit itself recovered from it (the *.golden.json files, dumped by
// its code): the ledger from requests.log, and the scheduler from what the
// read-only import of queue/queue.log lends the ledger.
func TestParentJournalsReopenUnchanged(t *testing.T) {
	src := filepath.Join("testdata", "parent_journals")
	dir := t.TempDir()
	queueLog := filepath.Join("queue", "queue.log")
	for _, name := range []string{"requests.log", queueLog} {
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, name)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The parent's file is evidence, not state: where the test is not root,
	// an import that tried to write it would fail here.
	if err := os.Chmod(filepath.Join(dir, queueLog), 0o444); err != nil {
		t.Fatal(err)
	}
	golden := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		return bytes.TrimSpace(data)
	}

	svc, _ := newStubService(t, nil)
	srv := serveService(t, svc, ServerConfig{JournalDir: dir})
	var ledger []*Request
	for _, rec := range svc.records() {
		ledger = append(ledger, &rec.Request)
	}
	got, err := json.MarshalIndent(ledger, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if want := golden("requests.golden.json"); !bytes.Equal(got, want) {
		t.Fatalf("request ledger recovered from the parent's requests.log:\n%s\nwant:\n%s", got, want)
	}
	if got, want := srv.StateSnapshot(), golden("queue.golden.json"); !bytes.Equal(got, want) {
		t.Fatalf("scheduler recovered from the parent's journals:\n%s\nwant:\n%s", got, want)
	}

	// And the front door serves from them: the two requests the SIGKILL
	// left in flight complete, under this chain's key.
	srv.Start()
	for _, id := range []string{"req-000006", "req-000007"} {
		if req := waitTerminal(t, svc, id); req.Status != StatusDone {
			t.Fatalf("%s ended %s", id, req.Status)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// Every later open reads the parent's file again, for the finished
	// requests this commit never rewrote, and leaves it as it was.
	re, _ := newStubService(t, nil)
	resrv := serveService(t, re, ServerConfig{JournalDir: dir})
	if st := resrv.Status().Queue; st.Queued != 0 || st.Terminal != 4 {
		t.Fatalf("second open: %+v, want the four sequenced requests terminal", st)
	}
	kept, err := os.ReadFile(filepath.Join(dir, queueLog))
	if err != nil {
		t.Fatal(err)
	}
	if orig, _ := os.ReadFile(filepath.Join(src, queueLog)); !bytes.Equal(kept, orig) {
		t.Fatalf("the import changed the parent's queue journal:\n%s", kept)
	}
	if names := dirNames(t, filepath.Join(dir, "queue")); len(names) != 1 {
		t.Fatalf("queue directory holds %v, want the parent's file alone", names)
	}
}
