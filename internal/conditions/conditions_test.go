package conditions

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"daspos/internal/xrand"
)

func TestStoreAndLookup(t *testing.T) {
	db := NewDB()
	if err := db.Store("calo/scale", "v1", IoV{100, 199}, Payload{"scale": 1.01}); err != nil {
		t.Fatal(err)
	}
	if err := db.Store("calo/scale", "v1", IoV{200, 299}, Payload{"scale": 1.02}); err != nil {
		t.Fatal(err)
	}
	p, err := db.Lookup("calo/scale", "v1", 150)
	if err != nil {
		t.Fatal(err)
	}
	if p["scale"] != 1.01 {
		t.Fatalf("payload %v", p)
	}
	p, err = db.Lookup("calo/scale", "v1", 200)
	if err != nil {
		t.Fatal(err)
	}
	if p["scale"] != 1.02 {
		t.Fatalf("payload %v", p)
	}
}

func TestLookupErrors(t *testing.T) {
	db := NewDB()
	_ = db.Store("f", "v1", IoV{1, 10}, Payload{"a": 1})
	if _, err := db.Lookup("missing", "v1", 5); !errors.Is(err, ErrNoFolder) {
		t.Fatalf("missing folder: %v", err)
	}
	if _, err := db.Lookup("f", "v2", 5); !errors.Is(err, ErrNoTag) {
		t.Fatalf("missing tag: %v", err)
	}
	if _, err := db.Lookup("f", "v1", 99); !errors.Is(err, ErrNoIoV) {
		t.Fatalf("missing iov: %v", err)
	}
}

func TestOverlapRejected(t *testing.T) {
	db := NewDB()
	if err := db.Store("f", "v1", IoV{10, 20}, Payload{"a": 1}); err != nil {
		t.Fatal(err)
	}
	for _, iov := range []IoV{{15, 25}, {5, 10}, {20, 20}, {1, 100}} {
		if err := db.Store("f", "v1", iov, Payload{"a": 2}); err == nil {
			t.Fatalf("overlap %v accepted", iov)
		}
	}
	// Same interval under a different tag is fine: tags are versions.
	if err := db.Store("f", "v2", IoV{10, 20}, Payload{"a": 2}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreValidation(t *testing.T) {
	db := NewDB()
	if err := db.Store("", "v1", IoV{1, 2}, nil); err == nil {
		t.Fatal("empty folder accepted")
	}
	if err := db.Store("f", "", IoV{1, 2}, nil); err == nil {
		t.Fatal("empty tag accepted")
	}
	if err := db.Store("f", "v1", IoV{5, 2}, nil); err == nil {
		t.Fatal("inverted IoV accepted")
	}
}

func TestPayloadIsolation(t *testing.T) {
	db := NewDB()
	orig := Payload{"a": 1}
	_ = db.Store("f", "v1", IoV{1, 10}, orig)
	orig["a"] = 999 // caller mutates its copy
	p, _ := db.Lookup("f", "v1", 5)
	if p["a"] != 1 {
		t.Fatal("stored payload aliased caller memory")
	}
	p["a"] = 777 // reader mutates its copy
	q, _ := db.Lookup("f", "v1", 5)
	if q["a"] != 1 {
		t.Fatal("lookup payload aliased store memory")
	}
}

func TestSnapshotResolvesOneRun(t *testing.T) {
	db := NewDB()
	_ = db.Store("f1", "v1", IoV{1, 100}, Payload{"x": 1})
	_ = db.Store("f1", "v1", IoV{101, 200}, Payload{"x": 2})
	_ = db.Store("f2", "v1", IoV{1, 200}, Payload{"y": 3})
	_ = db.Store("f3", "other", IoV{1, 200}, Payload{"z": 4})
	s := db.Snapshot("v1", 150)
	if got := s.Folders(); len(got) != 2 {
		t.Fatalf("snapshot folders %v", got)
	}
	p, err := s.Lookup("f1")
	if err != nil || p["x"] != 2 {
		t.Fatalf("f1: %v %v", p, err)
	}
	if _, err := s.Lookup("f3"); err == nil {
		t.Fatal("other-tag folder leaked into snapshot")
	}
}

func TestSnapshotIsFrozen(t *testing.T) {
	// The paper's trade-off: a snapshot does not see later tag updates,
	// the service does.
	db := NewDB()
	_ = db.Store("f", "v1", IoV{1, 100}, Payload{"x": 1})
	snap := db.Snapshot("v1", 50)
	// Publish a new tag version correcting the constant.
	_ = db.Store("f", "v2", IoV{1, 100}, Payload{"x": 9})
	p, _ := snap.Lookup("f")
	if p["x"] != 1 {
		t.Fatal("snapshot changed after publication")
	}
	q, _ := db.Lookup("f", "v2", 50)
	if q["x"] != 9 {
		t.Fatal("service does not see the new tag")
	}
}

func TestSnapshotTextRoundTrip(t *testing.T) {
	db := NewDB()
	if err := SeedStandard(db, "data-v3", 1000, 1200, 50, 42); err != nil {
		t.Fatal(err)
	}
	s := db.Snapshot("data-v3", 1100)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Tag != s.Tag || got.Run != s.Run {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Folders()) != len(s.Folders()) {
		t.Fatalf("folder count %d != %d", len(got.Folders()), len(s.Folders()))
	}
	for _, f := range s.Folders() {
		a, _ := s.Lookup(f)
		b, _ := got.Lookup(f)
		if len(a) != len(b) {
			t.Fatalf("folder %s key count", f)
		}
		for k, v := range a {
			if b[k] != v {
				t.Fatalf("folder %s key %s: %v != %v (not bit-exact)", f, k, b[k], v)
			}
		}
	}
	// Determinism: two writes of the same snapshot are byte-identical.
	var buf2 bytes.Buffer
	_ = WriteSnapshot(&buf2, s)
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("snapshot serialization not deterministic")
	}
}

func TestReadSnapshotRejectsCorrupt(t *testing.T) {
	cases := map[string]string{
		"bad header":     "NOPE\n",
		"stray end":      "CONDITIONS-SNAPSHOT 1\nend\n",
		"key outside":    "CONDITIONS-SNAPSHOT 1\nx 1\n",
		"bad value":      "CONDITIONS-SNAPSHOT 1\nfolder f\nx abc\nend\n",
		"unterminated":   "CONDITIONS-SNAPSHOT 1\nfolder f\nx 1\n",
		"nested folder":  "CONDITIONS-SNAPSHOT 1\nfolder f\nfolder g\nend\n",
		"bad run":        "CONDITIONS-SNAPSHOT 1\nrun abc\n",
		"bad key fields": "CONDITIONS-SNAPSHOT 1\nfolder f\na b c\nend\n",
		// A snapshot without a tag writes "tag " and cannot be read back.
		"no tag": "CONDITIONS-SNAPSHOT 1\nrun 1\n",
	}
	for name, in := range cases {
		if _, err := ReadSnapshot(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSeedStandardCoversAllRuns(t *testing.T) {
	db := NewDB()
	if err := SeedStandard(db, "t", 1, 1000, 100, 7); err != nil {
		t.Fatal(err)
	}
	for _, run := range []uint32{1, 100, 101, 555, 1000} {
		for _, f := range StandardFolders() {
			if _, err := db.Lookup(f, "t", run); err != nil {
				t.Fatalf("run %d folder %s: %v", run, f, err)
			}
		}
	}
	if _, err := db.Lookup(FolderECalScale, "t", 1001); err == nil {
		t.Fatal("lookup past seeded range succeeded")
	}
}

func TestSeedStandardDeterministic(t *testing.T) {
	a, b := NewDB(), NewDB()
	_ = SeedStandard(a, "t", 1, 500, 50, 9)
	_ = SeedStandard(b, "t", 1, 500, 50, 9)
	pa, _ := a.Lookup(FolderECalScale, "t", 250)
	pb, _ := b.Lookup(FolderECalScale, "t", 250)
	if pa["scale"] != pb["scale"] {
		t.Fatal("seeding not deterministic")
	}
}

func TestSeedStandardZeroPeriod(t *testing.T) {
	if err := SeedStandard(NewDB(), "t", 1, 10, 0, 1); err == nil {
		t.Fatal("zero period accepted")
	}
}

func TestConcurrentAccess(t *testing.T) {
	db := NewDB()
	_ = SeedStandard(db, "t", 1, 1000, 100, 1)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if _, err := db.Lookup(FolderECalScale, "t", uint32(1+i%1000)); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	// A concurrent writer publishing a new tag.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			_ = db.Store("extra", "t2", IoV{uint32(i*10 + 1), uint32(i*10 + 10)}, Payload{"v": float64(i)})
		}
	}()
	wg.Wait()
}

func BenchmarkServiceLookup(b *testing.B) {
	db := NewDB()
	_ = SeedStandard(db, "t", 1, 100000, 100, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Lookup(FolderECalScale, "t", uint32(1+i%100000)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshotLookup(b *testing.B) {
	db := NewDB()
	_ = SeedStandard(db, "t", 1, 100000, 100, 1)
	s := db.Snapshot("t", 50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Lookup(FolderECalScale); err != nil {
			b.Fatal(err)
		}
	}
}

func TestLookupResolvesCorrectIntervalProperty(t *testing.T) {
	// Property: for randomly sized non-overlapping intervals, Lookup always
	// returns the payload whose interval contains the run.
	rng := xrand.New(66)
	if err := quick.Check(func(nIntervals uint8) bool {
		db := NewDB()
		type span struct {
			iov IoV
			val float64
		}
		var spans []span
		next := uint32(1)
		for i := 0; i <= int(nIntervals%12); i++ {
			length := uint32(rng.Intn(50) + 1)
			iov := IoV{First: next, Last: next + length - 1}
			val := float64(i + 1)
			if err := db.Store("f", "t", iov, Payload{"v": val}); err != nil {
				return false
			}
			spans = append(spans, span{iov, val})
			next += length + uint32(rng.Intn(3)) // occasional gaps
		}
		// Probe every boundary and a midpoint of each interval.
		for _, sp := range spans {
			for _, run := range []uint32{sp.iov.First, sp.iov.Last, (sp.iov.First + sp.iov.Last) / 2} {
				p, err := db.Lookup("f", "t", run)
				if err != nil || p["v"] != sp.val {
					return false
				}
			}
		}
		// A run beyond the last interval must fail.
		if _, err := db.Lookup("f", "t", next+100); err == nil {
			return false
		}
		return true
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
