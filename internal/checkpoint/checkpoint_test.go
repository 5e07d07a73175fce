package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"daspos/internal/archive"
	"daspos/internal/cas"
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

// commitStep records one finished step of one artifact and returns its key
// and the committed record.
func commitStep(t *testing.T, l *Ledger, step, config string, inputs []string, payload []byte) (string, ArtifactRecord) {
	t.Helper()
	key := StepKey(step, config, inputs)
	rec, err := l.Commit(key, ArtifactRecord{Name: step + ".out", Tier: "RECO", Events: 3}, payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Done(step, config, inputs, []string{"conditions:calo"}); err != nil {
		t.Fatal(err)
	}
	return key, rec
}

// stepOf reads back the step.json of the package a key resolves to.
func stepOf(t *testing.T, l *Ledger, key string) stepRecord {
	t.Helper()
	l.mu.Lock()
	id := l.steps[key].pkg
	l.mu.Unlock()
	data, err := l.Fetch(id, stepFile)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := decodeStep(data)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestLedgerRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := openLedger(t, dir)
	k1, rec1 := commitStep(t, l, "reco", "cfg1", []string{"d-raw"}, []byte("reco payload"))
	// slim is interrupted: its artifact is stored, the step never done.
	k2 := StepKey("slim", "cfg2", []string{rec1.Digest})
	if _, err := l.Commit(k2, ArtifactRecord{Name: "slim.out"}, []byte("slim payload")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re := openLedger(t, dir)
	info, ok := re.Lookup(k1)
	if !ok {
		t.Fatal("reco lost on reopen")
	}
	if len(info.Artifacts) != 1 || info.Artifacts[0] != rec1 {
		t.Fatalf("reco artifacts: %+v", info.Artifacts)
	}
	if len(info.External) != 1 || info.External[0] != "conditions:calo" {
		t.Fatalf("external deps lost: %v", info.External)
	}
	if got, ok := re.Lookup(k2); ok {
		t.Fatalf("interrupted slim after reopen: %+v", got)
	}
	data, err := re.Load(k1, "reco.out")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "reco payload" {
		t.Fatalf("payload: %q", data)
	}
	if _, err := re.Load(k2, "slim.out"); err == nil {
		t.Fatal("Load accepted an interrupted step")
	}
	if _, err := re.Load(k1, "slim.out"); err == nil {
		t.Fatal("Load accepted an artifact the step never recorded")
	}
	st := re.Status()
	if len(st) != 1 || st[0].Step != "reco" || st[0].Key != k1 {
		t.Fatalf("status: %+v", st)
	}
	// step.json records what the key was made from.
	if rec := stepOf(t, re, k1); rec.Config != "cfg1" || !slices.Equal(rec.Inputs, []string{"d-raw"}) || rec.Format != stepFormat {
		t.Fatalf("step.json: %+v", rec)
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
// prove the ledger's roots log is package journal's, whose own tests cover
// the torn-tail and corruption policy in full (truncation, re-append,
// reopen).
func TestTornFinalRecordDroppedAndTruncated(t *testing.T) {
	dir := t.TempDir()
	l := openLedger(t, dir)
	k1, _ := commitStep(t, l, "reco", "cfg", []string{"d"}, []byte("payload"))
	k2, _ := commitStep(t, l, "slim", "cfg", []string{"d2"}, []byte("slim payload"))
	l.Close()

	// Tear the final record (slim's root) mid-write.
	if err := faults.TearFinalRecord(filepath.Join(dir, "packages.log")); err != nil {
		t.Fatal(err)
	}
	re := openLedger(t, dir)
	if info, ok := re.Lookup(k2); ok {
		t.Fatalf("slim after its torn root: %+v, want no step", info)
	}
	if _, ok := re.Lookup(k1); !ok {
		t.Fatal("reco lost to the tear")
	}
	// Done again, slim appends its root on a clean line.
	if _, err := re.Commit(k2, ArtifactRecord{Name: "slim.out", Tier: "RECO", Events: 3}, []byte("slim payload")); err != nil {
		t.Fatal(err)
	}
	if err := re.Done("slim", "cfg", []string{"d2"}, []string{"conditions:calo"}); err != nil {
		t.Fatal(err)
	}
	re.Close()
	if again := openLedger(t, dir); len(again.Status()) != 2 {
		t.Fatalf("after re-doing the torn step: %+v", again.Status())
	}
}

func TestMidStreamCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	l := openLedger(t, dir)
	commitStep(t, l, "reco", "cfg", []string{"d"}, []byte("payload"))
	l.Close()

	path := filepath.Join(dir, "packages.log")
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
	key, rec := commitStep(t, l, "reco", "cfg", []string{"d"}, []byte("pristine payload"))

	blob := filepath.Join(dir, "blobs", rec.Digest)
	damaged, err := os.ReadFile(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(blob, faults.CorruptBytes(damaged), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Load(key, rec.Name); !errors.Is(err, cas.ErrCorrupt) {
		t.Fatalf("damaged blob loaded: %v", err)
	}
	if rep := l.VerifyAll(); rep.Healthy != 0 {
		t.Fatalf("audit passed a damaged blob: %+v", rep)
	}

	// Committing the same step again repairs the blob in place; its
	// package is already there.
	commitStep(t, l, "reco", "cfg", []string{"d"}, []byte("pristine payload"))
	if data, err := l.Load(key, rec.Name); err != nil || string(data) != "pristine payload" {
		t.Fatalf("repair failed: %q, %v", data, err)
	}
	if rep := l.VerifyAll(); rep.Packages != 1 || rep.Healthy != 1 {
		t.Fatalf("after the repair: %+v", rep)
	}
}

func TestCommitRejectsDigestMismatch(t *testing.T) {
	l := openLedger(t, t.TempDir())
	_, err := l.Commit("k", ArtifactRecord{Name: "a", Digest: "not-the-hash"}, []byte("x"))
	if err == nil {
		t.Fatal("digest/payload disagreement accepted")
	}
	if _, err := l.Commit("k", ArtifactRecord{Name: stepFile}, []byte("x")); err == nil {
		t.Fatal("an artifact named like step.json accepted")
	}
}

// TestKillAtEveryPointRecovers sweeps the whole commit protocol: a ledger
// killed at its nth instrumented instruction, for every n, must reopen to
// a consistent state (a recorded step loads, and every package verifies)
// and accept a full re-recording of the interrupted step.
func TestKillAtEveryPointRecovers(t *testing.T) {
	// Count the kill points one clean step exposes.
	probe := faults.NewKiller()
	{
		l := openLedger(t, t.TempDir())
		l.SetKill(probe.Hit)
		commitStep(t, l, "reco", "cfg", nil, []byte("payload"))
		l.Close()
	}
	total := probe.Hits()
	if total < 15 {
		t.Fatalf("only %d kill points instrumented", total)
	}

	key := StepKey("reco", "cfg", nil)
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
			commitStep(t, l, "reco", "cfg", nil, []byte("payload"))
			l.Close()
			return false
		}()
		if !killed {
			t.Fatalf("kill at %d/%d did not fire", n, total)
		}
		// Recovery: reopen, finish the interrupted step, load. The core
		// invariant: a recorded step is always fully trustworthy, because
		// its blobs are durable before the root that names them.
		re := openLedger(t, dir)
		if _, ok := re.Lookup(key); ok {
			if _, err := re.Load(key, "reco.out"); err != nil {
				t.Fatalf("kill at %d: recorded step fails to load: %v", n, err)
			}
		}
		commitStep(t, re, "reco", "cfg", nil, []byte("payload"))
		if data, err := re.Load(key, "reco.out"); err != nil || string(data) != "payload" {
			t.Fatalf("kill at %d: recovered payload %q, %v", n, data, err)
		}
		if rep := re.VerifyAll(); rep.Packages != 1 || rep.Healthy != 1 {
			t.Fatalf("kill at %d: audit %+v", n, rep)
		}
		re.Close()
	}
}

func TestStaleTempObjectsCleanedOnOpen(t *testing.T) {
	dir := t.TempDir()
	blobs := filepath.Join(dir, "blobs")
	if err := os.MkdirAll(blobs, 0o755); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(blobs, "tmp-leftover")
	if err := os.WriteFile(stale, []byte("half a payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	openLedger(t, dir)
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp object survived open: %v", err)
	}
}

// copyParentLedger copies testdata/parent_ledger's journal.log and
// objects/ into a fresh directory.
func copyParentLedger(t *testing.T) (src, dir string) {
	t.Helper()
	src = filepath.Join("testdata", "parent_ledger")
	dir = t.TempDir()
	files, err := filepath.Glob(filepath.Join(src, "objects", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "objects"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range append(files, filepath.Join(src, "journal.log")) {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := filepath.Rel(src, f)
		if err := os.WriteFile(filepath.Join(dir, rel), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return src, dir
}

// TestParentLedgerReopensUnchanged opens a ledger an earlier build wrote
// (a `daspos-pipeline -events 5 -checkpoint-dir` run: journal.log over
// objects/) and demands the steps that build itself recovered from it
// (status.golden.json, dumped by its code), each adopted as a package
// whose artifacts load. The legacy files are left as they were, and a
// second Open adopts nothing twice.
func TestParentLedgerReopensUnchanged(t *testing.T) {
	src, dir := copyParentLedger(t)
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
		for _, rec := range info.Artifacts {
			if _, err := l.Load(info.Key, rec.Name); err != nil {
				t.Errorf("step %s: %v", info.Step, err)
			}
		}
	}
	if rep := l.VerifyAll(); rep.Packages != 3 || rep.Healthy != 3 {
		t.Fatalf("adopted packages: %+v", rep)
	}
	roots := l.Roots()
	l.Close()

	re := openLedger(t, dir)
	if again, _ := json.MarshalIndent(re.Status(), "", " "); !bytes.Equal(again, got) {
		t.Fatalf("second open recovered\n%s", again)
	}
	if !slices.Equal(re.Roots(), roots) {
		t.Fatalf("second open added roots: %v, want %v", re.Roots(), roots)
	}
	// The reopens left the parent's bytes alone.
	for _, name := range []string{"journal.log", "objects/4bddd30ec450b21eccaf1fe9acf301d501635eaf7efeec42a739b6b349845abf"} {
		a, _ := os.ReadFile(filepath.Join(src, name))
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || !bytes.Equal(a, b) {
			t.Fatalf("reopen rewrote %s: %v", name, err)
		}
	}
}

// TestLegacyDigestMustBeADigest: a journal.log line whose artifact digest
// is not a digest — here a path out of objects/ — fails Open naming the
// line, before any file it names is read.
func TestLegacyDigestMustBeADigest(t *testing.T) {
	_, dir := copyParentLedger(t)
	outside := filepath.Join(dir, "outside")
	if err := os.WriteFile(outside, []byte("not the ledger's"), 0o644); err != nil {
		t.Fatal(err)
	}
	journalPath := filepath.Join(dir, "journal.log")
	lines := `{"kind":"start","step":"evil","key":"k"}` + "\n" +
		`{"kind":"artifact","step":"evil","key":"k","artifact":{"name":"x","bytes":16,"digest":"../outside"}}` + "\n" +
		`{"kind":"done","step":"evil","key":"k"}` + "\n"
	f, err := os.OpenFile(journalPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(lines)
	f.Close()
	_, err = Open(dir)
	if err == nil || !strings.Contains(err.Error(), "line 12") || !strings.Contains(err.Error(), "../outside") {
		t.Fatalf("Open over a journal naming ../outside: %v, want an error naming line 12", err)
	}
	if ids, _ := filepath.Glob(filepath.Join(dir, "blobs", "*")); len(ids) != 0 {
		t.Fatalf("a refused journal was adopted into %d blobs", len(ids))
	}
}

// TestDuplicateStepIsAlreadyThere: doing a step again with the same
// artifacts finds its package and appends no root; an archive reports
// the duplicate with its ID.
func TestDuplicateStepIsAlreadyThere(t *testing.T) {
	dir := t.TempDir()
	l := openLedger(t, dir)
	key, _ := commitStep(t, l, "reco", "cfg", []string{"d"}, []byte("payload"))
	roots := l.Roots()
	commitStep(t, l, "reco", "cfg", []string{"d"}, []byte("payload"))
	if !slices.Equal(l.Roots(), roots) {
		t.Fatalf("roots after a repeated step: %v, want %v", l.Roots(), roots)
	}
	pkg, _ := l.Get(roots[0])
	meta := pkg.Metadata
	meta.ID = ""
	files := map[string][]byte{"reco.out": []byte("payload")}
	files[stepFile], _ = l.Fetch(roots[0], stepFile)
	if id, err := l.Ingest(meta, files); !errors.Is(err, archive.ErrDuplicate) || id != roots[0] {
		t.Fatalf("re-ingest: %s, %v; want %s with ErrDuplicate", id, err, roots[0])
	}
	if _, ok := l.Lookup(key); !ok {
		t.Fatal("step lost")
	}
}
