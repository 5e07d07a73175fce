package daspos

// Crash-storm integration tests: the checkpointed chain internal/chain
// builds — online → reconstruction → AOD slim → derivation skims through
// the workflow engine — is killed at every instrumented point of the
// ledger's commit protocol (the object.* points of its blobs/ and the
// journal.* points of its roots log), resumed, and must converge to tiers
// byte-identical with an uninterrupted run while never re-executing a step
// whose package verifies.

import (
	"bytes"
	"context"
	"maps"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"daspos/internal/archive"
	"daspos/internal/cas"
	"daspos/internal/chain"
	"daspos/internal/checkpoint"
	"daspos/internal/eventflow"
	"daspos/internal/faults"
	"daspos/internal/generator"
	"daspos/internal/provenance"
	"daspos/internal/workflow"
)

// crashChain is the production chain over a small sample, each step's body
// wrapped in an execution counter — the probe the skip assertions read.
func crashChain(t testing.TB, d *detCond, counts map[string]int) *workflow.Workflow {
	t.Helper()
	wf := buildChain(t, chain.Production(generator.ProcDrellYanZ, 0, 80, 40, d.snap),
		chain.Tuning{Workers: 2, Flow: eventflow.Options{BatchSize: 8}})
	for i := range wf.Steps {
		step := &wf.Steps[i]
		run := step.Run
		step.Run = func(ctx *workflow.Context) error {
			counts[step.Name]++
			return run(ctx)
		}
	}
	return wf
}

var chainOutputs = []string{chain.RawBanks, chain.RecoEDM, chain.AODEDM, "skim.DIMUON", "skim.MET"}

var chainSteps = []string{"online", "reconstruction", "aod-slim", "derivation-train"}

// referenceTiers runs the chain uninterrupted, no ledger, and returns the
// byte-identity reference for every storm below.
func referenceTiers(t testing.TB, d *detCond) map[string][]byte {
	t.Helper()
	res, err := crashChain(t, d, map[string]int{}).Execute(
		context.Background(), nil, provenance.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(chainOutputs))
	for _, name := range chainOutputs {
		out[name] = res.Artifacts[name].Data
	}
	return out
}

func assertTiersIdentical(t *testing.T, label string, want map[string][]byte, res *workflow.Result) {
	t.Helper()
	for _, name := range chainOutputs {
		a := res.Artifacts[name]
		if a == nil {
			t.Fatalf("%s: tier %s missing", label, name)
		}
		if !bytes.Equal(a.Data, want[name]) {
			t.Fatalf("%s: tier %s differs from uninterrupted run", label, name)
		}
	}
}

// runKilled executes the checkpointed chain expecting the killer to fire;
// it reports whether the kill happened (false: the run completed).
func runKilled(t *testing.T, d *detCond, dir string, counts map[string]int, killer *faults.Killer, resume bool) (killed bool) {
	t.Helper()
	l, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.SetKill(killer.Hit)
	opt := workflow.WithCheckpoint(l)
	if resume {
		opt = workflow.ResumeFrom(l)
	}
	defer func() {
		if r := recover(); r != nil {
			if _, ok := faults.AsKill(r); !ok {
				panic(r)
			}
			killed = true
		}
	}()
	if _, err := crashChain(t, d, counts).Execute(context.Background(), nil, provenance.NewStore(), opt); err != nil {
		t.Fatal(err)
	}
	return false
}

// doneSteps returns the steps the ledger holds a package of AND whose
// artifacts pass fixity — exactly the set resume must not re-execute.
func doneSteps(t *testing.T, dir string) map[string]bool {
	t.Helper()
	l, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(map[string]bool)
	for _, info := range l.Status() {
		done[info.Step] = true
		for _, rec := range info.Artifacts {
			if _, err := l.Load(info.Key, rec.Name); err != nil {
				done[info.Step] = false
			}
		}
	}
	return done
}

// verifyRunDirectory demands that a run directory opens as an archive whose
// every package passes its fixity audit, and returns how many it holds.
func verifyRunDirectory(t *testing.T, label, dir string) int {
	t.Helper()
	a, err := archive.Open(dir)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	defer a.Close()
	rep := a.VerifyAll()
	if rep.Healthy != rep.Packages {
		t.Fatalf("%s: run directory audit %+v", label, rep)
	}
	return rep.Packages
}

func resumeToCompletion(t *testing.T, d *detCond, dir string, counts map[string]int) *workflow.Result {
	t.Helper()
	l, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	res, err := crashChain(t, d, counts).Execute(
		context.Background(), nil, provenance.NewStore(), workflow.ResumeFrom(l))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCrashStormResumesByteIdentical kills the pipeline at EVERY
// instrumented point of the commit protocol — one fresh run per point —
// resumes each, and asserts the resumed output is byte-identical to the
// uninterrupted reference and that no step with verified checkpointed
// outputs re-executed.
func TestCrashStormResumesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("crash storm is a long test")
	}
	d := detectorWithConditions(t)
	want := referenceTiers(t, d)

	// Probe: count the kill points one uninterrupted checkpointed run
	// exposes. The storm sweeps all of them.
	probe := faults.NewKiller()
	if killed := runKilled(t, d, t.TempDir(), map[string]int{}, probe, false); killed {
		t.Fatal("disarmed probe killed the run")
	}
	total := probe.Hits()
	if total < 20 {
		t.Fatalf("only %d kill points over the run, want >= 20", total)
	}
	t.Logf("crash storm: sweeping %d kill points", total)

	for n := 1; n <= total; n++ {
		dir := t.TempDir()
		counts := map[string]int{}
		killer := faults.NewKiller()
		killer.CrashAfterN(n)
		if !runKilled(t, d, dir, counts, killer, false) {
			t.Fatalf("kill %d/%d did not fire", n, total)
		}
		survivors := doneSteps(t, dir)
		for step, ok := range survivors {
			if !ok {
				t.Fatalf("kill %d: step %s holds a package that fails fixity", n, step)
			}
		}
		preKill := make(map[string]int, len(counts))
		for step, c := range counts {
			preKill[step] = c
		}

		res := resumeToCompletion(t, d, dir, counts)
		assertTiersIdentical(t, "kill at "+strconv.Itoa(n), want, res)
		if got := verifyRunDirectory(t, "kill at "+strconv.Itoa(n), dir); got != len(chainSteps) {
			t.Fatalf("kill %d: run directory holds %d packages", n, got)
		}
		if res.Executed+res.Skipped != len(chainSteps) {
			t.Fatalf("kill %d: executed=%d skipped=%d", n, res.Executed, res.Skipped)
		}
		if res.Skipped != len(survivors) {
			t.Fatalf("kill %d: skipped %d steps, ledger held %d verified", n, res.Skipped, len(survivors))
		}
		for step, c := range counts {
			if survivors[step] && c != preKill[step] {
				t.Fatalf("kill %d: step %s with verified checkpoint re-executed", n, step)
			}
			if c > preKill[step]+1 {
				t.Fatalf("kill %d: step %s ran %d times on resume", n, step, c-preKill[step])
			}
		}
	}
}

// TestCrashStormRepeatedKills hammers ONE ledger directory: every attempt
// is killed a few points further in, resuming from whatever the previous
// death left, until the run finally completes. Progress must be monotone —
// checkpointed work is never lost to the next crash.
func TestCrashStormRepeatedKills(t *testing.T) {
	d := detectorWithConditions(t)
	want := referenceTiers(t, d)
	dir := t.TempDir()
	counts := map[string]int{}

	// Each attempt survives a little longer before dying. The budget must
	// grow: recovery is step-granular (a killed step restarts from its
	// beginning), so a fixed budget shorter than the longest step would
	// crash-loop forever — which is itself worth knowing about the design.
	attempts := 0
	for ; attempts < 40; attempts++ {
		killer := faults.NewKiller()
		killer.CrashAfterN(5 + attempts*4)
		if !runKilled(t, d, dir, counts, killer, attempts > 0) {
			break
		}
	}
	if attempts == 40 {
		t.Fatal("run never completed under repeated kills")
	}
	t.Logf("survived %d kills before completing", attempts)

	// The final state replays clean and byte-identical.
	res := resumeToCompletion(t, d, dir, counts)
	assertTiersIdentical(t, "repeated kills", want, res)
	if res.Skipped != len(chainSteps) {
		t.Fatalf("completed run not fully checkpointed: skipped=%d", res.Skipped)
	}
	// Every step eventually ran, and no step ran once per attempt — the
	// ledger carried finished work across crashes.
	for _, step := range chainSteps {
		if counts[step] == 0 {
			t.Fatalf("step %s never executed", step)
		}
		if counts[step] > attempts+1 {
			t.Fatalf("step %s ran %d times over %d attempts — checkpoints not honoured", step, counts[step], attempts)
		}
	}
}

// TestResumeCorruptedArtifactForcesReExecution damages one checkpointed
// blob and asserts resume re-executes exactly the affected step.
func TestResumeCorruptedArtifactForcesReExecution(t *testing.T) {
	d := detectorWithConditions(t)
	dir := t.TempDir()
	counts := map[string]int{}
	killer := faults.NewKiller() // disarmed
	if runKilled(t, d, dir, counts, killer, false) {
		t.Fatal("disarmed killer fired")
	}

	l, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var recoDigest string
	for _, info := range l.Status() {
		if info.Step == "reconstruction" {
			recoDigest = info.Artifacts[0].Digest
		}
	}
	obj := filepath.Join(dir, "blobs", recoDigest)
	l.Close()
	data, err := os.ReadFile(obj)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(obj, faults.CorruptBytes(data), 0o644); err != nil {
		t.Fatal(err)
	}

	res := resumeToCompletion(t, d, dir, counts)
	if counts["reconstruction"] != 2 {
		t.Fatalf("reconstruction ran %d times, want 2 (re-run after fixity failure)", counts["reconstruction"])
	}
	// Reconstruction is deterministic, so its re-produced output digest is
	// unchanged and the downstream steps stay skippable.
	if counts["online"] != 1 || counts["aod-slim"] != 1 || counts["derivation-train"] != 1 {
		t.Fatalf("unaffected steps re-ran: %v", counts)
	}
	if res.Executed != 1 || res.Skipped != 3 {
		t.Fatalf("executed=%d skipped=%d, want 1/3", res.Executed, res.Skipped)
	}
	assertTiersIdentical(t, "corrupted artifact", referenceTiers(t, d), res)
	if done := doneSteps(t, dir); len(done) != len(chainSteps) || !done["reconstruction"] {
		t.Fatalf("ledger not repaired: %v", done)
	}
	verifyRunDirectory(t, "after the repair", dir)
}

// TestResumeTornFinalJournalRecord tears the roots log's real final record
// — the last step's root — and asserts resume re-executes only that step,
// everything earlier staying checkpointed.
func TestResumeTornFinalJournalRecord(t *testing.T) {
	d := detectorWithConditions(t)
	dir := t.TempDir()
	counts := map[string]int{}
	if runKilled(t, d, dir, counts, faults.NewKiller(), false) {
		t.Fatal("disarmed killer fired")
	}

	if err := faults.TearFinalRecord(filepath.Join(dir, "packages.log")); err != nil {
		t.Fatal(err)
	}

	res := resumeToCompletion(t, d, dir, counts)
	if counts["derivation-train"] != 2 {
		t.Fatalf("interrupted final step ran %d times, want 2", counts["derivation-train"])
	}
	if counts["online"] != 1 || counts["reconstruction"] != 1 || counts["aod-slim"] != 1 {
		t.Fatalf("intact steps re-ran: %v", counts)
	}
	if res.Executed != 1 || res.Skipped != 3 {
		t.Fatalf("executed=%d skipped=%d, want 1/3", res.Executed, res.Skipped)
	}
	assertTiersIdentical(t, "torn roots line", referenceTiers(t, d), res)
}

// TestRunDirectoryIsAnArchive: a finished run's directory opens as an
// archive and passes its audit; every tier is stored raw — the marker 0x00,
// then the payload; with packages.log gone, a resume still skips every
// step (the roots rebuild from the manifests); and after one tier byte is
// flipped, only the step that made it re-executes, restoring its tier byte
// for byte.
func TestRunDirectoryIsAnArchive(t *testing.T) {
	d := detectorWithConditions(t)
	want := referenceTiers(t, d)
	dir := t.TempDir()
	counts := map[string]int{}
	if runKilled(t, d, dir, counts, faults.NewKiller(), false) {
		t.Fatal("disarmed killer fired")
	}
	if n := verifyRunDirectory(t, "finished run", dir); n != len(chainSteps) {
		t.Fatalf("run directory holds %d packages, want %d", n, len(chainSteps))
	}
	blob := func(name string) string {
		return filepath.Join(dir, "blobs", cas.Digest(want[name]))
	}
	for _, name := range chainOutputs {
		stored, err := os.ReadFile(blob(name))
		if err != nil {
			t.Fatal(err)
		}
		if len(stored) == 0 || stored[0] != 0x00 || !bytes.Equal(stored[1:], want[name]) {
			t.Fatalf("tier %s is not stored raw", name)
		}
	}

	if err := os.Remove(filepath.Join(dir, "packages.log")); err != nil {
		t.Fatal(err)
	}
	res := resumeToCompletion(t, d, dir, counts)
	if res.Skipped != len(chainSteps) {
		t.Fatalf("after a lost packages.log: executed=%d skipped=%d", res.Executed, res.Skipped)
	}
	assertTiersIdentical(t, "lost packages.log", want, res)

	aod := blob(chain.AODEDM)
	stored, err := os.ReadFile(aod)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), stored...)
	flipped[len(flipped)-1] ^= 0x01
	if err := os.WriteFile(aod, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	before := maps.Clone(counts)
	res = resumeToCompletion(t, d, dir, counts)
	for _, step := range chainSteps {
		more := 0
		if step == "aod-slim" {
			more = 1
		}
		if reran := counts[step] - before[step]; reran != more {
			t.Fatalf("after one flipped AOD byte, %s ran %d more times, want %d", step, reran, more)
		}
	}
	assertTiersIdentical(t, "flipped tier byte", want, res)
	if again, err := os.ReadFile(aod); err != nil || !bytes.Equal(again, stored) {
		t.Fatalf("the re-executed step did not restore its tier byte for byte: %v", err)
	}
	verifyRunDirectory(t, "after the repair", dir)
}
