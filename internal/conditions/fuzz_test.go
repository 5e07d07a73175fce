package conditions

import (
	"bytes"
	"testing"
)

// FuzzReadSnapshot holds the snapshot reader to its archival promise: any
// text it accepts writes back to a canonical form that reads to the same
// snapshot and writes to the same bytes again, and no input panics it.
// The seeds are a real snapshot of the standard calibration and its
// truncations.
func FuzzReadSnapshot(f *testing.F) {
	db := NewDB()
	if err := SeedStandard(db, "prod-v1", 1, 100, 10, 42); err != nil {
		f.Fatal(err)
	}
	var seed bytes.Buffer
	if err := WriteSnapshot(&seed, db.Snapshot("prod-v1", 1)); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add(seed.Bytes()[:seed.Len()/2])
	f.Add([]byte(snapshotMagic + "\nrun 1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		var enc bytes.Buffer
		if err := WriteSnapshot(&enc, s); err != nil {
			t.Fatalf("an accepted snapshot does not write: %v", err)
		}
		back, err := ReadSnapshot(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("a written snapshot does not read back: %v\n%s", err, enc.Bytes())
		}
		var again bytes.Buffer
		if err := WriteSnapshot(&again, back); err != nil || !bytes.Equal(again.Bytes(), enc.Bytes()) {
			t.Fatalf("a written snapshot reads back to another one: %v\n%s\n%s", err, enc.Bytes(), again.Bytes())
		}
	})
}
