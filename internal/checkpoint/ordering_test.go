package checkpoint

import (
	"reflect"
	"testing"
)

// TestCommitDurabilityOrdering pins the commit protocol's instruction
// order by recording the instrumented kill points. The sequence IS the
// durability argument: the payload must be fully written and fsynced
// before the rename publishes it, the rename must land before the
// directory fsync makes it crash-proof, and only then may the journal
// record the artifact — a journal line referencing an object that might
// not exist would corrupt resume. If this test fails, the crash-safety
// story of the whole checkpoint layer is broken, not just a test.
func TestCommitDurabilityOrdering(t *testing.T) {
	l := openLedger(t, t.TempDir())

	var got []string
	l.SetKill(func(point string) { got = append(got, point) })

	if _, err := l.Commit("reco", "run1", ArtifactRecord{Name: "reco.out"}, []byte("payload bytes")); err != nil {
		t.Fatal(err)
	}

	want := []string{
		"object.create",  // temp file created in objects/
		"object.torn",    // first half written (tear window)
		"object.sync",    // payload complete, about to fsync
		"object.rename",  // fsync done, about to publish
		"object.durable", // rename + dir fsync complete
		"journal.append", // only now may the journal reference the object
		"journal.torn",
		"journal.sync",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("commit kill-point sequence:\n got %v\nwant %v", got, want)
	}

	// Re-committing identical bytes keeps the object (the store verifies
	// its digest) but must still fsync its directory entry before the
	// journal names it: the run that renamed the object may have died
	// between the rename and its own directory fsync, which leaves exactly
	// this state, and a journal record over an entry a power cut can take
	// back is the one thing the protocol exists to rule out.
	got = nil
	if _, err := l.Commit("reco", "run1", ArtifactRecord{Name: "reco.out"}, []byte("payload bytes")); err != nil {
		t.Fatal(err)
	}
	want = []string{"object.durable", "journal.append", "journal.torn", "journal.sync"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("idempotent re-commit kill-point sequence:\n got %v\nwant %v", got, want)
	}
}
