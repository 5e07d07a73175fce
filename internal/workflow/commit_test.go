package workflow

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"daspos/internal/checkpoint"
	"daspos/internal/faults"
	"daspos/internal/provenance"
)

// Tests of the commit behind the compute. None of them asserts a duration:
// each interleaving is forced by a ledger kill hook and a step body that
// wait on one another, and hookGuard only bounds how long a test hangs
// when the code under it is wrong.
const hookGuard = 20 * time.Second

// waitFor blocks until ch is closed. It is called from kill hooks, which
// run on the commit goroutine, so a miss is an Error, not a Fatal.
func waitFor(t *testing.T, ch <-chan struct{}, what string) {
	select {
	case <-ch:
	case <-time.After(hookGuard):
		t.Errorf("gave up waiting for %s", what)
	}
}

// fill writes n deterministic bytes in event-sized writes.
func fill(w io.Writer, seed uint64, n int) error {
	var chunk [1024]byte
	x := seed | 1
	for n > 0 {
		for i := 0; i < len(chunk); i += 8 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			binary.LittleEndian.PutUint64(chunk[i:], x)
		}
		k := min(n, len(chunk))
		if _, err := w.Write(chunk[:k]); err != nil {
			return err
		}
		n -= k
	}
	return nil
}

// sizedChain is a chain of streaming steps with fixed-size artifacts:
// sizes[i][j] is the length of output j of step i+1, and the bytes come
// from a generator seeded by the step's input, so every artifact — and
// with it every ledger key — is a function of the sizes alone.
func sizedChain(sizes ...[]int) *Workflow {
	w := &Workflow{Name: "sized", PrimaryInputs: []string{"seed"}}
	in := "seed"
	for i, lens := range sizes {
		s := Step{Name: fmt.Sprintf("step%d", i+1), Software: "sized", Version: "1", Inputs: []string{in}}
		for j := range lens {
			s.Outputs = append(s.Outputs, fmt.Sprintf("tier%d.%d", i+1, j))
		}
		from, outs := in, s.Outputs
		s.Run = func(c *Context) error {
			a, err := c.Input(from)
			if err != nil {
				return err
			}
			h := fnv.New64a()
			io.WriteString(h, a.Digest())
			c.External("conditions/" + c.step.Name)
			for j, name := range outs {
				aw, err := c.StreamOutput(name, "TIER")
				if err != nil {
					return err
				}
				if err := fill(aw, h.Sum64()+uint64(j), lens[j]); err != nil {
					return err
				}
				if err := aw.Commit(lens[j] / 1000); err != nil {
					return err
				}
			}
			return nil
		}
		w.Steps = append(w.Steps, s)
		in = s.Outputs[0]
	}
	return w
}

func seedInput() map[string]*Artifact {
	return map[string]*Artifact{"seed": {Name: "seed", Tier: "SEED", Data: []byte("seed")}}
}

// executeSynchronously is the loop Execute ran before the commit moved
// behind the compute — the step body, one Commit an output, Done, each
// finished before the next begins, all on the caller's goroutine —
// kept as the reference the background commit is compared with: what it
// writes, and in which order, is by definition what Execute must write.
func executeSynchronously(w *Workflow, inputs map[string]*Artifact, l *checkpoint.Ledger) error {
	pool := make(map[string]*Artifact, len(inputs))
	for _, name := range w.PrimaryInputs {
		pool[name] = inputs[name]
	}
	for i := range w.Steps {
		s := &w.Steps[i]
		inDigests := make([]string, 0, len(s.Inputs))
		for _, in := range s.Inputs {
			inDigests = append(inDigests, pool[in].Digest())
		}
		key := checkpoint.StepKey(s.Name, s.ConfigDigest(), inDigests)
		sctx := &Context{ctx: context.Background(), step: s, inputs: pool, outputs: make(map[string]*Artifact)}
		if err := s.Run(sctx); err != nil {
			return err
		}
		for _, out := range s.Outputs {
			a, ok := sctx.outputs[out]
			if !ok {
				return fmt.Errorf("step %q did not produce %q", s.Name, out)
			}
			rec := checkpoint.ArtifactRecord{Name: a.Name, Tier: a.Tier, Events: a.Events, Digest: a.Digest()}
			if _, err := l.Commit(key, rec, a.Data); err != nil {
				return err
			}
			pool[out] = a
		}
		slices.Sort(sctx.external)
		if err := l.Done(s.Name, s.ConfigDigest(), inDigests, slices.Compact(sctx.external)); err != nil {
			return err
		}
	}
	return nil
}

// ledgerBytes is everything a checkpoint directory holds: the roots log's
// bytes and each blob's name and content hash.
func ledgerBytes(t *testing.T, dir string) (roots []byte, blobs map[string]string) {
	t.Helper()
	roots, err := os.ReadFile(filepath.Join(dir, "packages.log"))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	blobs = make(map[string]string, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, "blobs", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		blobs[e.Name()] = hex.EncodeToString(sum[:])
	}
	return roots, blobs
}

// TestExecuteWritesWhatTheSynchronousLoopWrites is the prefix argument's
// premise: the same workflow through the reference loop and through
// Execute leaves a byte-equal roots log, the same blobs, and passes the
// same kill points in the same order — so a crash under Execute leaves a
// state the synchronous loop could have left.
func TestExecuteWritesWhatTheSynchronousLoopWrites(t *testing.T) {
	// Artifacts of several pieces, of less than one, an odd length, and an
	// empty one beside a sibling: 5 artifacts, 4 steps.
	sizes := [][]int{{700 << 10}, {300 << 10}, {100<<10 + 13}, {10 << 10, 0}}
	run := func(drive func(w *Workflow, l *checkpoint.Ledger) error) ([]byte, map[string]string, []string) {
		dir := t.TempDir()
		l := openTestLedger(t, dir)
		var points []string
		l.SetKill(func(p string) { points = append(points, p) })
		if err := drive(sizedChain(sizes...), l); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		roots, blobs := ledgerBytes(t, dir)
		return roots, blobs, points
	}
	wantRoots, wantBlobs, wantPoints := run(func(w *Workflow, l *checkpoint.Ledger) error {
		return executeSynchronously(w, seedInput(), l)
	})
	gotRoots, gotBlobs, gotPoints := run(func(w *Workflow, l *checkpoint.Ledger) error {
		_, err := w.Execute(context.Background(), seedInput(), provenance.NewStore(), WithCheckpoint(l))
		return err
	})
	if len(bytes.Split(wantRoots, []byte("\n"))) != 5 || !bytes.Equal(gotRoots, wantRoots) {
		t.Errorf("packages.log differs from the synchronous loop's:\n got %s\nwant %s", gotRoots, wantRoots)
	}
	// 5 artifacts, and 4 × (step.json + manifest).
	if len(wantBlobs) != 13 || !reflect.DeepEqual(gotBlobs, wantBlobs) {
		t.Errorf("blobs/ differs from the synchronous loop's:\n got %v\nwant %v", gotBlobs, wantBlobs)
	}
	// 5 × artifact blob 5 + 4 × (step.json 5 + manifest 5 + root 3).
	if len(wantPoints) != 77 || !reflect.DeepEqual(gotPoints, wantPoints) {
		t.Errorf("kill-point sequence differs from the synchronous loop's:\n got %v\nwant %v", gotPoints, wantPoints)
	}
}

// TestNextStepComputesWhileCommitIsInFlight proves the overlap without a
// clock: step 1's commit is held at its object.sync — payload written, not
// yet fsynced, renamed or ingested — until step 2's body reports that it
// has started. A loop that commits between steps never gets there.
func TestNextStepComputesWhileCommitIsInFlight(t *testing.T) {
	l := openTestLedger(t, t.TempDir())
	step2Started := make(chan struct{})
	syncs := 0
	l.SetKill(func(p string) {
		if p != "object.sync" {
			return
		}
		if syncs++; syncs == 1 {
			waitFor(t, step2Started, "step 2 to start while step 1's commit is in flight")
		}
	})
	w := sizedChain([]int{64 << 10}, []int{64 << 10})
	body := w.Steps[1].Run
	w.Steps[1].Run = func(c *Context) error {
		close(step2Started)
		return body(c)
	}
	res, err := w.Execute(context.Background(), seedInput(), provenance.NewStore(), WithCheckpoint(l))
	if err != nil {
		t.Fatal(err)
	}
	// Returned nil: all of it is durable, however the work interleaved.
	if res.Executed != 2 || len(l.Status()) != 2 {
		t.Fatalf("executed=%d, ledger holds %d steps", res.Executed, len(l.Status()))
	}
	assertLoads(t, l)
}

// TestKillOnCommitGoroutineIsRelayedAfterTheRunningStepReturns fires an
// injected kill inside step 1's commit while step 2 is mid-run. The kill
// must reach Execute's caller as the same *faults.Kill, only once step 2
// has been cancelled and has returned; nothing may touch the ledger after
// the kill point; and the commit goroutine must be gone.
func TestKillOnCommitGoroutineIsRelayedAfterTheRunningStepReturns(t *testing.T) {
	baseline := runtime.NumGoroutine()
	dir := t.TempDir()
	l := openTestLedger(t, dir)
	killer := faults.NewKiller()
	killer.CrashAtPoint("object.rename", 1)
	step2Started := make(chan struct{})
	var points []string
	l.SetKill(func(p string) {
		points = append(points, p)
		if p == "object.rename" {
			waitFor(t, step2Started, "step 2 to be mid-run when the kill fires")
		}
		killer.Hit(p)
	})
	w := sizedChain([]int{64 << 10}, []int{64 << 10}, []int{64 << 10})
	step2Returned, step3Ran := false, false
	w.Steps[1].Run = func(c *Context) error {
		close(step2Started)
		<-c.Ctx().Done() // the kill cancels the step it overlaps
		step2Returned = true
		return c.Ctx().Err()
	}
	w.Steps[2].Run = func(c *Context) error {
		step3Ran = true
		return nil
	}

	var kill *faults.Kill
	func() {
		defer func() {
			r := recover()
			k, ok := faults.AsKill(r)
			if !ok {
				panic(r)
			}
			kill = k
		}()
		_, err := w.Execute(context.Background(), seedInput(), provenance.NewStore(), WithCheckpoint(l))
		t.Fatalf("run survived the kill: %v", err)
	}()
	if kill.Point != "object.rename" {
		t.Fatalf("killed at %s", kill.Point)
	}
	if !step2Returned {
		t.Fatal("kill reached the caller without step 2 having been cancelled and awaited")
	}
	if step3Ran {
		t.Fatal("step 3 started after the kill")
	}
	if last := points[len(points)-1]; last != "object.rename" {
		t.Fatalf("ledger touched after the kill: %v", points)
	}
	for i := 0; runtime.NumGoroutine() > baseline; i++ {
		if i == 1000 {
			t.Fatalf("%d goroutines, %d before the run: the commit goroutine outlived Execute", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond) // the goroutine closes its done channel a moment before it is gone
	}
	// The caller may close and reopen at once: step 1 was never done, and
	// its unpublished temp blob is swept.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	re := openTestLedger(t, dir)
	if st := re.Status(); len(st) != 0 {
		t.Fatalf("ledger after the kill: %+v", st)
	}
	if _, blobs := ledgerBytes(t, dir); len(blobs) != 0 {
		t.Fatalf("blobs after the kill: %v", blobs)
	}
}

// breakBlobs makes every write into dir/blobs fail, for root too: the
// directory is moved aside and a plain file takes its name. The returned
// function puts it back.
func breakBlobs(dir string) (repair func() error, err error) {
	blobs, aside := filepath.Join(dir, "blobs"), filepath.Join(dir, "blobs.aside")
	if err := os.Rename(blobs, aside); err != nil {
		return nil, err
	}
	if err := os.WriteFile(blobs, nil, 0o644); err != nil {
		return nil, err
	}
	return func() error {
		if err := os.Remove(blobs); err != nil {
			return err
		}
		return os.Rename(aside, blobs)
	}, nil
}

// TestCommitErrorNamesItsStepAndCancelsTheRun: step 2's commit meets an
// unwritable blobs/ while step 3 is mid-run. The run fails naming step
// 2 — not the cancelled step 3 —, step 3 sees its context cancelled, step
// 4 never starts, nothing further is issued, and step 1 is still done when
// the ledger is reopened.
func TestCommitErrorNamesItsStepAndCancelsTheRun(t *testing.T) {
	dir := t.TempDir()
	l := openTestLedger(t, dir)
	step1Durable, step3Started := make(chan struct{}), make(chan struct{})
	syncs, creates := 0, 0
	l.SetKill(func(p string) {
		switch p {
		case "journal.sync":
			// Step 1's root is written: its blobs are durable, and
			// blobs/ may go.
			if syncs++; syncs == 1 {
				close(step1Durable)
			}
		case "object.create":
			// The fourth blob is step 2's artifact (after step 1's
			// artifact, step.json and manifest), about to fail; hold it
			// until step 3 runs.
			if creates++; creates == 4 {
				waitFor(t, step3Started, "step 3 to be mid-run when step 2's commit fails")
			}
		}
	})
	w := sizedChain([]int{64 << 10}, []int{64 << 10}, []int{64 << 10}, []int{64 << 10})
	var repair func() error
	step2 := w.Steps[1].Run
	w.Steps[1].Run = func(c *Context) error {
		<-step1Durable
		var err error
		if repair, err = breakBlobs(dir); err != nil {
			return err
		}
		return step2(c)
	}
	step3SawCancel, step4Ran := false, false
	w.Steps[2].Run = func(c *Context) error {
		close(step3Started)
		<-c.Ctx().Done()
		step3SawCancel = true
		return c.Ctx().Err()
	}
	w.Steps[3].Run = func(c *Context) error {
		step4Ran = true
		return nil
	}

	res, err := w.Execute(context.Background(), seedInput(), provenance.NewStore(), WithCheckpoint(l))
	if err == nil || res != nil {
		t.Fatalf("run over an unwritable blobs/ returned %v, %v", res, err)
	}
	if !strings.Contains(err.Error(), `step "step2"`) || errors.Is(err, context.Canceled) {
		t.Fatalf("error does not name the step whose commit failed: %v", err)
	}
	if !step3SawCancel || step4Ran {
		t.Fatalf("step 3 saw cancellation: %v, step 4 ran: %v", step3SawCancel, step4Ran)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := repair(); err != nil {
		t.Fatal(err)
	}
	re := openTestLedger(t, dir)
	st := re.Status()
	if len(st) != 1 || st[0].Step != "step1" {
		t.Fatalf("ledger holds %+v, want step 1 only: step 2's commit failed and step 3's was queued behind it", st)
	}
	assertLoads(t, re)
}

// TestStepErrorLetsFinishedCommitsComplete: step 2 fails on its own while
// step 1's commit is still in flight. Execute returns step 2's error, and
// only after step 1 is durably done.
func TestStepErrorLetsFinishedCommitsComplete(t *testing.T) {
	dir := t.TempDir()
	l := openTestLedger(t, dir)
	step2Failed := make(chan struct{})
	syncs := 0
	l.SetKill(func(p string) {
		if p != "object.sync" {
			return
		}
		if syncs++; syncs == 1 {
			waitFor(t, step2Failed, "step 2 to fail while step 1's commit is in flight")
		}
	})
	w := sizedChain([]int{64 << 10}, []int{64 << 10})
	errBody := errors.New("detector on fire")
	w.Steps[1].Run = func(c *Context) error {
		close(step2Failed)
		return errBody
	}
	if _, err := w.Execute(context.Background(), seedInput(), provenance.NewStore(), WithCheckpoint(l)); !errors.Is(err, errBody) {
		t.Fatalf("run returned %v, want step 2's own error", err)
	}
	if st := l.Status(); len(st) != 1 || st[0].Step != "step1" {
		t.Fatalf("ledger after a failed step 2: %+v", st)
	}
	assertLoads(t, l)
}

// BenchmarkExecuteCheckpointed runs a four-step chain of fixed-size
// artifacts, sized like the production tiers, under a ledger: what one
// checkpointed re-execution costs end to end. Run it with -cpu 2.
func BenchmarkExecuteCheckpointed(b *testing.B) {
	sizes := [][]int{{4 << 20}, {2 << 20}, {1 << 20}, {256 << 10, 128 << 10}}
	total := 0
	for _, lens := range sizes {
		for _, n := range lens {
			total += n
		}
	}
	b.SetBytes(int64(total))
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		l, err := checkpoint.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := sizedChain(sizes...).Execute(context.Background(), seedInput(), provenance.NewStore(), WithCheckpoint(l)); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := l.Close(); err != nil {
			b.Fatal(err)
		}
		os.RemoveAll(dir)
		b.StartTimer()
	}
}
