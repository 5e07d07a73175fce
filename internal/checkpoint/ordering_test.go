package checkpoint

import (
	"reflect"
	"testing"
)

// TestCommitDurabilityOrdering pins the commit protocol's instruction
// order by recording the instrumented kill points. The sequence IS the
// durability argument: each blob must be fully written and fsynced before
// the rename publishes it, the rename must land before the directory
// fsync makes it crash-proof, and only once the artifact, step.json and
// the manifest are all durable may the roots log name the package — a
// root over a blob that might not exist would corrupt resume. If this
// test fails, the crash-safety story of the whole checkpoint layer is
// broken, not just a test.
func TestCommitDurabilityOrdering(t *testing.T) {
	l := openLedger(t, t.TempDir())

	var got []string
	l.SetKill(func(point string) { got = append(got, point) })

	key := StepKey("reco", "cfg", nil)
	commit := func() {
		if _, err := l.Commit(key, ArtifactRecord{Name: "reco.out"}, []byte("payload bytes")); err != nil {
			t.Fatal(err)
		}
		if err := l.Done("reco", "cfg", nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	commit()
	blob := []string{
		"object.create",  // temp file created in blobs/
		"object.torn",    // first half written (tear window)
		"object.sync",    // blob complete, about to fsync
		"object.rename",  // fsync done, about to publish
		"object.durable", // rename + dir fsync complete
	}
	var want []string
	for range 3 { // the artifact (Commit), then step.json and the manifest (Done)
		want = append(want, blob...)
	}
	want = append(want, "journal.append", "journal.torn", "journal.sync") // only now may the roots log name the package
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("commit kill-point sequence:\n got %v\nwant %v", got, want)
	}

	// Re-committing identical bytes keeps the blob (the store compares
	// them) but still fsyncs its directory entry: the run that renamed it
	// may have died between the rename and its own directory fsync, which
	// leaves exactly this state. Done then finds the package already there
	// and appends no root.
	got = nil
	commit()
	want = []string{"object.durable"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("idempotent re-commit kill-point sequence:\n got %v\nwant %v", got, want)
	}
}
