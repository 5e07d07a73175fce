package checkpoint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"daspos/internal/faults"
)

func openLedger(t *testing.T, dir string) *Ledger {
	t.Helper()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// record one full step lifecycle and return the committed record.
func commitStep(t *testing.T, l *Ledger, step, key string, payload []byte) ArtifactRecord {
	t.Helper()
	if err := l.Start(step, key); err != nil {
		t.Fatal(err)
	}
	rec, err := l.Commit(step, key, ArtifactRecord{Name: step + ".out", Tier: "RECO", Events: 3}, payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Done(step, key, []string{"conditions:calo"}); err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestLedgerRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openLedger(t, dir)
	k1 := StepKey("reco", "cfg1", []string{"d-raw"})
	k2 := StepKey("slim", "cfg2", []string{"d-reco"})
	rec1 := commitStep(t, l, "reco", k1, []byte("reco payload"))
	if err := l.Start("slim", k2); err != nil {
		t.Fatal(err)
	}
	// slim is interrupted: started, never done.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re := openLedger(t, dir)
	info, ok := re.Lookup(k1)
	if !ok || info.State != StepDone {
		t.Fatalf("reco after reopen: ok=%v state=%v", ok, info.State)
	}
	if len(info.Artifacts) != 1 || info.Artifacts[0].Digest != rec1.Digest {
		t.Fatalf("reco artifacts: %+v", info.Artifacts)
	}
	if len(info.External) != 1 || info.External[0] != "conditions:calo" {
		t.Fatalf("external deps lost: %v", info.External)
	}
	if got, ok := re.Lookup(k2); !ok || got.State != StepStarted {
		t.Fatalf("slim after reopen: ok=%v state=%v", ok, got.State)
	}
	data, err := re.Load(rec1)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "reco payload" {
		t.Fatalf("payload: %q", data)
	}
	if err := re.Verify(k1); err != nil {
		t.Fatal(err)
	}
	if err := re.Verify(k2); err == nil {
		t.Fatal("Verify accepted an interrupted step")
	}
	st := re.Status()
	if len(st) != 2 || st[0].Step != "reco" || st[1].Step != "slim" {
		t.Fatalf("status order: %+v", st)
	}
}

func TestStepKeySensitivity(t *testing.T) {
	base := StepKey("reco", "cfg", []string{"a", "b"})
	if StepKey("reco", "cfg", []string{"a", "b"}) != base {
		t.Fatal("key not deterministic")
	}
	for _, other := range []string{
		StepKey("reco2", "cfg", []string{"a", "b"}),
		StepKey("reco", "cfg2", []string{"a", "b"}),
		StepKey("reco", "cfg", []string{"a", "c"}),
		StepKey("reco", "cfg", []string{"b", "a"}),
		StepKey("reco", "cfg", []string{"a"}),
	} {
		if other == base {
			t.Fatal("key insensitive to identity change")
		}
	}
}

// TestTornFinalRecordDroppedAndTruncated and TestMidStreamCorruptionRejected
// prove the ledger is wired to package journal, whose own tests cover the
// torn-tail and corruption policy in full (truncation, re-append, reopen).
func TestTornFinalRecordDroppedAndTruncated(t *testing.T) {
	dir := t.TempDir()
	l := openLedger(t, dir)
	k1 := StepKey("reco", "cfg", []string{"d"})
	commitStep(t, l, "reco", k1, []byte("payload"))
	k2 := StepKey("slim", "cfg", []string{"d2"})
	if err := l.Start("slim", k2); err != nil {
		t.Fatal(err)
	}
	if err := l.Done("slim", k2, nil); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Tear the final record (slim's done line) mid-write.
	if err := faults.TearFinalRecord(filepath.Join(dir, journalName)); err != nil {
		t.Fatal(err)
	}
	re := openLedger(t, dir)
	if info, _ := re.Lookup(k2); info.State != StepStarted {
		t.Fatalf("slim after torn done record: %v, want started", info.State)
	}
	if info, _ := re.Lookup(k1); info.State != StepDone {
		t.Fatalf("reco lost to tear: %v", info.State)
	}
}

func TestMidStreamCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	l := openLedger(t, dir)
	k := StepKey("reco", "cfg", []string{"d"})
	commitStep(t, l, "reco", k, []byte("payload"))
	l.Close()

	path := filepath.Join(dir, journalName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Damage a line that is NOT the last: real corruption, not a tear.
	corrupted := "{broken json\n" + string(data)
	if err := os.WriteFile(path, []byte(corrupted), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("mid-stream corruption accepted: %v", err)
	}
}

func TestLoadDetectsDamagedObject(t *testing.T) {
	dir := t.TempDir()
	l := openLedger(t, dir)
	k := StepKey("reco", "cfg", []string{"d"})
	rec := commitStep(t, l, "reco", k, []byte("pristine payload"))

	obj := l.ObjectPath(rec.Digest)
	damaged, err := os.ReadFile(obj)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(obj, faults.CorruptBytes(damaged), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Load(rec); err == nil || !strings.Contains(err.Error(), "fixity") {
		t.Fatalf("damaged object loaded: %v", err)
	}
	if err := l.Verify(k); err == nil {
		t.Fatal("Verify accepted a damaged object")
	}

	// Re-committing the same payload repairs the object in place.
	if _, err := l.Commit("reco", k, ArtifactRecord{Name: "reco.out"}, []byte("pristine payload")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Load(rec); err != nil {
		t.Fatalf("repair failed: %v", err)
	}
}

func TestCommitRejectsDigestMismatch(t *testing.T) {
	l := openLedger(t, t.TempDir())
	_, err := l.Commit("s", "k", ArtifactRecord{Name: "a", Digest: "not-the-hash"}, []byte("x"))
	if err == nil {
		t.Fatal("digest/payload disagreement accepted")
	}
}

// TestKillAtEveryPointRecovers sweeps the whole commit protocol: a ledger
// killed at its nth instrumented instruction, for every n, must reopen to
// a consistent state (done steps verifiable, everything else re-runnable)
// and accept a full re-recording of the interrupted step.
func TestKillAtEveryPointRecovers(t *testing.T) {
	// Count the kill points one clean lifecycle exposes.
	probe := faults.NewKiller()
	{
		l := openLedger(t, t.TempDir())
		l.SetKill(probe.Hit)
		commitStep(t, l, "reco", "key-r", []byte("payload"))
		l.Close()
	}
	total := probe.Hits()
	if total < 10 {
		t.Fatalf("only %d kill points instrumented", total)
	}

	for n := 1; n <= total; n++ {
		dir := t.TempDir()
		killer := faults.NewKiller()
		killer.CrashAfterN(n)
		killed := func() (killed bool) {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := faults.AsKill(r); !ok {
						panic(r)
					}
					killed = true
				}
			}()
			l := openLedger(t, dir)
			l.SetKill(killer.Hit)
			commitStep(t, l, "reco", "key-r", []byte("payload"))
			l.Close()
			return false
		}()
		if !killed {
			t.Fatalf("kill at %d/%d did not fire", n, total)
		}
		// Recovery: reopen, finish the interrupted lifecycle, verify. The
		// core invariant: a replayed done record is always fully
		// trustworthy, because artifacts become durable before the journal
		// line announcing them.
		re := openLedger(t, dir)
		if info, ok := re.Lookup("key-r"); ok && info.State == StepDone {
			if err := re.Verify("key-r"); err != nil {
				t.Fatalf("kill at %d: replayed done step fails verify: %v", n, err)
			}
		}
		rec := commitStep(t, re, "reco", "key-r", []byte("payload"))
		if err := re.Verify("key-r"); err != nil {
			t.Fatalf("kill at %d: recovery verify: %v", n, err)
		}
		if data, err := re.Load(rec); err != nil || string(data) != "payload" {
			t.Fatalf("kill at %d: recovered payload %q, %v", n, data, err)
		}
		re.Close()
	}
}

func TestStaleTempObjectsCleanedOnOpen(t *testing.T) {
	dir := t.TempDir()
	objDir := filepath.Join(dir, objectsName)
	if err := os.MkdirAll(objDir, 0o755); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(objDir, "tmp-leftover")
	if err := os.WriteFile(stale, []byte("half a payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	openLedger(t, dir)
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp object survived open: %v", err)
	}
}

// TestParentLedgerReopensUnchanged replays a ledger written by the commit
// before the journal moved onto package journal (a `daspos-pipeline
// -events 5 -checkpoint-dir` run) and demands the state that commit
// itself recovered from it (status.golden.json, dumped by its code), with
// every recorded artifact still passing fixity.
func TestParentLedgerReopensUnchanged(t *testing.T) {
	src := filepath.Join("testdata", "parent_ledger")
	dir := t.TempDir()
	files, err := filepath.Glob(filepath.Join(src, objectsName, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, objectsName), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range append(files, filepath.Join(src, journalName)) {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := filepath.Rel(src, f)
		if err := os.WriteFile(filepath.Join(dir, rel), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l := openLedger(t, dir)
	got, err := json.MarshalIndent(l.Status(), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(src, "status.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.TrimSpace(want)) {
		t.Fatalf("ledger recovered from the parent's journal.log:\n%s\nwant:\n%s", got, want)
	}
	for _, info := range l.Status() {
		if err := l.Verify(info.Key); err != nil {
			t.Errorf("step %s: %v", info.Step, err)
		}
	}
	// The reopen left the parent's bytes alone.
	a, _ := os.ReadFile(filepath.Join(src, journalName))
	b, _ := os.ReadFile(l.JournalPath())
	if !bytes.Equal(a, b) {
		t.Fatal("reopen rewrote an intact journal")
	}
}
