package workflow

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"daspos/internal/checkpoint"
	"daspos/internal/faults"
	"daspos/internal/provenance"
)

// countedTwoStep is twoStep with per-step execution counters, the
// instrument the resume tests assert skipping with.
func countedTwoStep(counts map[string]int) *Workflow {
	w := twoStep()
	for i := range w.Steps {
		name, inner := w.Steps[i].Name, w.Steps[i].Run
		w.Steps[i].Run = func(ctx *Context) error {
			counts[name]++
			return inner(ctx)
		}
	}
	return w
}

// assertLoads fails unless every artifact of every step the ledger holds
// reads back through its package.
func assertLoads(t *testing.T, l *checkpoint.Ledger) {
	t.Helper()
	for _, info := range l.Status() {
		for _, rec := range info.Artifacts {
			if _, err := l.Load(info.Key, rec.Name); err != nil {
				t.Fatalf("step %q: %v", info.Step, err)
			}
		}
	}
}

func openTestLedger(t *testing.T, dir string) *checkpoint.Ledger {
	t.Helper()
	l, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func TestCheckpointedRunRecordsEveryStep(t *testing.T) {
	dir := t.TempDir()
	l := openTestLedger(t, dir)
	counts := map[string]int{}
	res, err := countedTwoStep(counts).Execute(context.Background(), rawInput(), provenance.NewStore(), WithCheckpoint(l))
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != 2 || res.Skipped != 0 {
		t.Fatalf("executed=%d skipped=%d", res.Executed, res.Skipped)
	}
	assertLoads(t, l)
	if n := len(l.Status()); n != 2 {
		t.Fatalf("ledger holds %d steps", n)
	}
	if rep := l.VerifyAll(); rep.Packages != 2 || rep.Healthy != 2 {
		t.Fatalf("the run directory's audit: %+v", rep)
	}
}

func TestResumeSkipsVerifiedSteps(t *testing.T) {
	dir := t.TempDir()
	first := openTestLedger(t, dir)
	counts := map[string]int{}
	ref, err := countedTwoStep(counts).Execute(context.Background(), rawInput(), provenance.NewStore(), WithCheckpoint(first))
	if err != nil {
		t.Fatal(err)
	}
	first.Close()

	// A fresh process resumes: same workflow, same inputs, new ledger
	// handle over the same directory.
	re := openTestLedger(t, dir)
	resumed, err := countedTwoStep(counts).Execute(context.Background(), rawInput(), provenance.NewStore(), ResumeFrom(re))
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Executed != 0 || resumed.Skipped != 2 {
		t.Fatalf("resume executed=%d skipped=%d, want 0/2", resumed.Executed, resumed.Skipped)
	}
	if counts["reco"] != 1 || counts["slim"] != 1 {
		t.Fatalf("steps re-executed on resume: %v", counts)
	}
	for name, a := range ref.Artifacts {
		b := resumed.Artifacts[name]
		if b == nil || string(b.Data) != string(a.Data) || b.Digest() != a.Digest() {
			t.Fatalf("artifact %q differs after resume", name)
		}
		if b.Events != a.Events || b.Tier != a.Tier {
			t.Fatalf("artifact %q metadata lost: %+v vs %+v", name, b, a)
		}
	}
	// Skipped steps keep their provenance census.
	for i, rep := range resumed.Reports {
		if !rep.Skipped {
			t.Fatalf("report %d not marked skipped", i)
		}
		if len(rep.ExternalDeps) != len(ref.Reports[i].ExternalDeps) {
			t.Fatalf("step %q external deps lost on resume: %v vs %v",
				rep.Step, rep.ExternalDeps, ref.Reports[i].ExternalDeps)
		}
	}
}

func TestResumeReexecutesOnCorruptedArtifact(t *testing.T) {
	dir := t.TempDir()
	first := openTestLedger(t, dir)
	counts := map[string]int{}
	ref, err := countedTwoStep(counts).Execute(context.Background(), rawInput(), provenance.NewStore(), WithCheckpoint(first))
	if err != nil {
		t.Fatal(err)
	}
	first.Close()

	// Damage the first step's checkpointed artifact: its digest no longer
	// matches, so fixity must force exactly that step to re-execute. The
	// second step's checkpoint is keyed on the (unchanged) digest of the
	// re-produced output, so it stays skippable.
	re := openTestLedger(t, dir)
	obj := filepath.Join(dir, "blobs", ref.Artifacts["reco-out"].Digest())
	data, err := os.ReadFile(obj)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(obj, faults.CorruptBytes(data), 0o644); err != nil {
		t.Fatal(err)
	}

	resumed, err := countedTwoStep(counts).Execute(context.Background(), rawInput(), provenance.NewStore(), ResumeFrom(re))
	if err != nil {
		t.Fatal(err)
	}
	if counts["reco"] != 2 {
		t.Fatalf("reco executions = %d, want 2 (re-run after fixity failure)", counts["reco"])
	}
	if counts["slim"] != 1 {
		t.Fatalf("slim executions = %d, want 1 (unaffected step re-ran)", counts["slim"])
	}
	if resumed.Executed != 1 || resumed.Skipped != 1 {
		t.Fatalf("executed=%d skipped=%d, want 1/1", resumed.Executed, resumed.Skipped)
	}
	// The re-execution repaired the blob.
	if string(resumed.Artifacts["reco-out"].Data) != string(ref.Artifacts["reco-out"].Data) {
		t.Fatal("re-executed artifact differs")
	}
	assertLoads(t, re)
}

func TestResumeReexecutesInterruptedStep(t *testing.T) {
	dir := t.TempDir()
	l := openTestLedger(t, dir)
	killer := faults.NewKiller()
	// Die tearing the first step's root: the step's artifact, step.json
	// and manifest are durable, but the package is not committed.
	killer.CrashAtPoint("journal.torn", 1)
	l.SetKill(killer.Hit)
	counts := map[string]int{}
	// The commit runs behind the compute, so slim is free to start while
	// reco's done record is still being written. Pin the interleaving:
	// slim is held at its door until the kill — the only thing that
	// cancels this run — has fired, and, as a step that honours
	// cancellation does, gives up before its body, and its counter, is
	// reached.
	w := countedTwoStep(counts)
	w.Steps[1].Run = func(c *Context) error {
		<-c.Ctx().Done()
		return c.Ctx().Err()
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := faults.AsKill(r); !ok {
					panic(r)
				}
			}
		}()
		_, err := w.Execute(context.Background(), rawInput(), provenance.NewStore(), WithCheckpoint(l))
		t.Fatalf("run survived the kill: %v", err)
	}()
	l.Close()
	if counts["reco"] != 1 || counts["slim"] != 0 {
		t.Fatalf("pre-kill executions: %v", counts)
	}

	re := openTestLedger(t, dir)
	resumed, err := countedTwoStep(counts).Execute(context.Background(), rawInput(), provenance.NewStore(), ResumeFrom(re))
	if err != nil {
		t.Fatal(err)
	}
	// The interrupted step re-ran; nothing was skippable.
	if counts["reco"] != 2 || counts["slim"] != 1 {
		t.Fatalf("post-resume executions: %v", counts)
	}
	if resumed.Executed != 2 || resumed.Skipped != 0 {
		t.Fatalf("executed=%d skipped=%d", resumed.Executed, resumed.Skipped)
	}
}

func TestResumeIgnoresCheckpointOnConfigChange(t *testing.T) {
	dir := t.TempDir()
	l := openTestLedger(t, dir)
	counts := map[string]int{}
	if _, err := countedTwoStep(counts).Execute(context.Background(), rawInput(), provenance.NewStore(), WithCheckpoint(l)); err != nil {
		t.Fatal(err)
	}
	l.Close()

	re := openTestLedger(t, dir)
	w := countedTwoStep(counts)
	w.Steps[0].Config["minpt"] = "0.5" // different config digest → different key
	resumed, err := w.Execute(context.Background(), rawInput(), provenance.NewStore(), ResumeFrom(re))
	if err != nil {
		t.Fatal(err)
	}
	if counts["reco"] != 2 {
		t.Fatalf("reconfigured step not re-executed: %v", counts)
	}
	// Its output bytes are unchanged by this config knob, so downstream
	// keys still match and slim stays skipped.
	if counts["slim"] != 1 || resumed.Skipped != 1 {
		t.Fatalf("downstream step of unchanged digest re-ran: %v, skipped=%d", counts, resumed.Skipped)
	}
}

func TestExecuteHonoursContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := twoStep().Execute(ctx, rawInput(), provenance.NewStore()); err == nil {
		t.Fatal("cancelled context executed")
	}
	counts := map[string]int{}
	w := countedTwoStep(counts)
	ctx2, cancel2 := context.WithCancel(context.Background())
	w.Steps[0].Run = func(c *Context) error {
		counts["reco"]++
		cancel2() // cancelled mid-run: the next step must not start
		return passthrough("raw", "reco-out", "RECO")(c)
	}
	if _, err := w.Execute(ctx2, rawInput(), provenance.NewStore()); err == nil {
		t.Fatal("execution continued past cancellation")
	}
	if counts["slim"] != 0 {
		t.Fatal("step started after cancellation")
	}
}
