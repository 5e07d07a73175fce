package recast

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"daspos/internal/faults"
	"daspos/internal/leshouches"
	"daspos/internal/resilience"
)

// The kill-point sweep over the whole front door. One script drives every
// way a request leaves the service — a back-end run, an archive answer
// found at claim, one found at acceptance, an expiry, a dead letter —
// through Server's own handlers, with the worker pool played on the test's
// goroutine so that the order of appends is fixed. The sweep kills the
// process at each kill point of each append, reopens the directory, runs
// the script to its end and demands the state a never-crashed server has.

// sweepDeadSeed is the model the sweep's back end refuses for good.
const sweepDeadSeed = 6

// sweepBackend answers every model but one, and counts runs per model seed.
type sweepBackend struct {
	mu   sync.Mutex
	runs map[uint64]int
}

func (b *sweepBackend) ConfigDigest() string { return "sweep" }

func (b *sweepBackend) Process(_ context.Context, model ModelSpec, record *leshouches.AnalysisRecord) (*Result, error) {
	b.mu.Lock()
	b.runs[model.Seed]++
	b.mu.Unlock()
	if model.Seed == sweepDeadSeed {
		return nil, resilience.MarkPermanent(errors.New("model outside preserved phase space"))
	}
	return &Result{Analysis: record.Name, BackEnd: "sweep", Generated: model.Events}, nil
}

// sweepRig is one journal directory and what outlives a crash of the server
// over it: the clock (which, like a real one, a restart does not turn back),
// the back end's counters, and what the script was told.
type sweepRig struct {
	dir     string
	clk     *serverClock
	backend *sweepBackend
	// acked holds the requests an approval answered 2xx for.
	acked map[string]bool
}

func newSweepRig(t *testing.T) *sweepRig {
	return &sweepRig{
		dir:     t.TempDir(),
		clk:     &serverClock{t: sweepT0},
		backend: &sweepBackend{runs: make(map[uint64]int)},
		acked:   make(map[string]bool),
	}
}

var sweepT0 = time.Unix(9000, 0)

// open starts a manual-approval server over the rig's directory; its
// workers are never started.
func (r *sweepRig) open(t *testing.T) *Server {
	t.Helper()
	svc := NewService(r.backend)
	if err := svc.Subscribe(Subscription{Name: "GPD_2013_DIMUON_HIGHMASS", Record: highMassSearch()}); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(context.Background(), svc, ServerConfig{
		JournalDir: r.dir, Policy: fastPolicy(), Now: r.clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	return unbreakable(srv)
}

// script runs the lifecycle from wherever the ledger says it stands: every
// step looks the request up by the ID it must have and does only what is
// still missing, so the same function is the uncrashed run and the resume.
func (r *sweepRig) script(t *testing.T, srv *Server) {
	t.Helper()
	h := srv.Handler()
	submitted := func(id, tenant string, seed uint64, budget string) {
		t.Helper()
		if _, err := srv.svc.Get(id); !errors.Is(err, ErrNoRequest) {
			return
		}
		w := postSubmit(t, h, tenant, seed, budget)
		var req Request
		if err := json.Unmarshal(w.Body.Bytes(), &req); w.Code != http.StatusCreated || err != nil || req.ID != id {
			t.Fatalf("submit of %s: %d %s", id, w.Code, w.Body)
		}
	}
	approved := func(id string) {
		t.Helper()
		if req, err := srv.svc.Get(id); err != nil || req.Status != StatusSubmitted {
			return
		}
		if w := postApprove(h, id); w.Code != http.StatusOK {
			t.Fatalf("approve of %s: %d %s", id, w.Code, w.Body)
		}
		r.acked[id] = true
	}

	submitted("req-000001", "alice", 1, "")
	approved("req-000001")
	submitted("req-000002", "bob", 1, "") // alice's model, accepted while hers is queued
	approved("req-000002")
	submitted("req-000003", "alice", 3, "") // alice's second: order within a tenant
	approved("req-000003")
	runQueued(srv)                          // 1 runs, 2 is answered from 1's archive at claim, 3 runs
	submitted("req-000004", "carol", 1, "") // alice's model again: answered at acceptance
	approved("req-000004")
	submitted("req-000005", "dave", 5, "50") // 50 ms to live, and the experiment takes a second
	r.clk.set(sweepT0.Add(time.Second))
	approved("req-000005")
	submitted("req-000006", "erin", sweepDeadSeed, "")
	approved("req-000006")
	runQueued(srv) // 5 expires unrun, 6 dead-letters
}

func (c *serverClock) set(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = t
}

// checkSweepEnd asserts where the script leaves every request.
func (r *sweepRig) checkSweepEnd(t *testing.T, srv *Server) {
	t.Helper()
	want := []struct {
		id      string
		status  Status
		dedupOf string
		reason  string
	}{
		{"req-000001", StatusDone, "", ""},
		{"req-000002", StatusDone, "req-000001", ""},
		{"req-000003", StatusDone, "", ""},
		{"req-000004", StatusDone, "req-000001", ""},
		{"req-000005", StatusFailed, "", "deadline expired in queue"},
		{"req-000006", StatusFailed, "", "preserved phase space"},
	}
	for _, w := range want {
		got, err := srv.svc.Get(w.id)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != w.status || got.DedupOf != w.dedupOf || !strings.Contains(got.Reason, w.reason) {
			t.Errorf("%s ended %s (dedup_of %q, reason %q), want %s (dedup_of %q, reason %q)",
				w.id, got.Status, got.DedupOf, got.Reason, w.status, w.dedupOf, w.reason)
		}
	}
	if dead, _ := srv.svc.Get("req-000006"); len(dead.Attempts) == 0 {
		t.Error("the dead letter lost its attempt history")
	}
	if n := r.backend.runs[5]; n != 0 {
		t.Errorf("the expired request ran %d times", n)
	}
	if st := srv.Status(); st.Queue.Queued != 0 || st.Queue.Claimed != 0 || !st.JournalOK {
		t.Errorf("status after the script: %+v", st)
	}
	if names := dirNames(t, r.dir); len(names) != 1 || names[0] != "requests.log" {
		t.Errorf("journal directory holds %v, want requests.log alone", names)
	}
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

func TestServerKillSweep(t *testing.T) {
	// Reference: the script against a server that never crashes, with a
	// disarmed killer counting the kill points it passes.
	ref := newSweepRig(t)
	refSrv := ref.open(t)
	defer refSrv.Close()
	probe := faults.NewKiller()
	refSrv.svc.journal.SetKill(probe.Hit)
	ref.script(t, refSrv)
	ref.checkSweepEnd(t, refSrv)
	want := refSrv.StateSnapshot()
	// 4 appends for each of the two runs and the dead letter, 3 for each
	// archive answer and the expiry; three kill points an append.
	if total := probe.Hits(); total != 3*(3*4+3*3) {
		t.Fatalf("%d kill points in the lifecycle, want %d", total, 3*(3*4+3*3))
	}
	var deadline int64
	for _, rec := range refSrv.svc.records() {
		if rec.ID == "req-000005" {
			deadline = rec.Queue.DeadlineUnixMs
		}
	}
	if deadline != sweepT0.Add(50*time.Millisecond).UnixMilli() {
		t.Fatalf("journaled deadline %d, want the submission's 50 ms budget", deadline)
	}

	for n := 1; n <= probe.Hits(); n++ {
		n := n
		t.Run(fmt.Sprintf("kill-%03d", n), func(t *testing.T) {
			rig := newSweepRig(t)
			srv := rig.open(t)
			killer := faults.NewKiller()
			killer.CrashAfterN(n)
			srv.svc.journal.SetKill(killer.Hit)
			crashed := func() (c bool) {
				defer func() {
					if r := recover(); r != nil {
						if _, ok := faults.AsKill(r); !ok {
							panic(r)
						}
						c = true
					}
				}()
				rig.script(t, srv)
				return false
			}()
			srv.Close()
			if !crashed {
				t.Fatalf("kill at hit %d never fired", n)
			}

			// Restart. What the experiment was told is queued is owed.
			re := rig.open(t)
			defer re.Close()
			for id := range rig.acked {
				if got, err := re.svc.Get(id); err != nil || got.Status == StatusSubmitted {
					t.Fatalf("%s was acknowledged and is %+v %v after the crash", id, got, err)
				}
			}
			rig.script(t, re)
			rig.checkSweepEnd(t, re)
			if got := re.StateSnapshot(); !bytes.Equal(got, want) {
				t.Fatalf("state after kill %d diverges from uncrashed reference:\n--- got ---\n%s\n--- want ---\n%s", n, got, want)
			}
			// And the final ledger must itself replay to the same state.
			re.Close()
			re2 := rig.open(t)
			defer re2.Close()
			if got := re2.StateSnapshot(); !bytes.Equal(got, want) {
				t.Fatalf("ledger replay after kill %d diverges:\n%s", n, got)
			}
		})
	}
}
