package cas

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"daspos/internal/xrand"
)

// failing returns the stored digests whose Verify fails, in digest order.
func failing(s *Store) []string {
	var bad []string
	for _, d := range s.backend.Digests() {
		if _, err := s.Verify(d); err != nil {
			bad = append(bad, d)
		}
	}
	return bad
}

func TestPutGetRoundTrip(t *testing.T) {
	s := NewStore()
	data := []byte("the preserved analysis payload")
	d, err := s.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(d)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("content mismatch")
	}
	if !s.backend.HasBlob(d) || s.backend.HasBlob("nope") {
		t.Fatal("HasBlob broken")
	}
}

func TestRoundTripProperty(t *testing.T) {
	s := NewStore()
	if err := quick.Check(func(data []byte) bool {
		d, err := s.Put(data)
		if err != nil {
			return false
		}
		got, err := s.Get(d)
		return err == nil && bytes.Equal(got, data)
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDeduplication(t *testing.T) {
	s := NewStore()
	data := bytes.Repeat([]byte("x"), 10000)
	d1, _ := s.Put(data)
	d2, _ := s.Put(append([]byte(nil), data...))
	if d1 != d2 {
		t.Fatal("same content, different digests")
	}
	if n := len(s.backend.Digests()); n != 1 {
		t.Fatalf("blobs %d", n)
	}
	if _, logical, _ := s.backend.GetBlob(d1); logical != 10000 {
		t.Fatalf("logical %d", logical)
	}
}

func TestCompression(t *testing.T) {
	s := NewStore()
	// Highly compressible payload.
	data := bytes.Repeat([]byte("abcd"), 25000)
	d, err := s.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	comp, _, err := s.backend.GetBlob(d)
	if err != nil || len(data) < 5*len(comp) {
		t.Fatalf("%d bytes of repetitive data stored in %d (%v)", len(data), len(comp), err)
	}
}

func TestGetMissing(t *testing.T) {
	s := NewStore()
	if _, err := s.Get("deadbeef"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err: %v", err)
	}
}

func TestCorruptionDetected(t *testing.T) {
	s := NewStore()
	r := xrand.New(1)
	data := make([]byte, 5000)
	for i := range data {
		data[i] = byte(r.Uint64())
	}
	d, _ := s.Put(data)
	if err := s.Corrupt(d); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(d); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corruption not detected: %v", err)
	}
	if bad := failing(s); len(bad) != 1 || bad[0] != d {
		t.Fatalf("failing: %v", bad)
	}
	if err := s.Corrupt("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("corrupt missing: %v", err)
	}
}

func TestDelete(t *testing.T) {
	s := NewStore()
	d, _ := s.Put([]byte("x"))
	s.backend.DeleteBlob(d)
	if s.backend.HasBlob(d) {
		t.Fatal("deleted blob present")
	}
	s.backend.DeleteBlob("nope") // no-op
	if n := len(s.backend.Digests()); n != 0 {
		t.Fatalf("%d blobs after delete", n)
	}
}

func TestDigestsSorted(t *testing.T) {
	s := NewStore()
	for i := 0; i < 20; i++ {
		if _, err := s.Put([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	ds := s.backend.Digests()
	if len(ds) != 20 {
		t.Fatalf("digests %d", len(ds))
	}
	for i := 1; i < len(ds); i++ {
		if ds[i] <= ds[i-1] {
			t.Fatal("not sorted")
		}
	}
}

// TestPersistLoad: what a Store over a DiskBackend stored, a fresh
// DiskBackend over the same directory reads back.
func TestPersistLoad(t *testing.T) {
	dir := t.TempDir()
	disk, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStoreWith(disk)
	r := xrand.New(2)
	var digests []string
	for i := 0; i < 30; i++ {
		data := make([]byte, 100+r.Intn(5000))
		for j := range data {
			data[j] = byte(r.Uint64())
		}
		d, err := s.Put(data)
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, d)
	}
	reopened, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := NewStoreWith(reopened)
	if ds := reopened.Digests(); !slices.Equal(ds, disk.Digests()) || len(ds) != 30 {
		t.Fatalf("%d blobs after reopen, want the 30 stored", len(ds))
	}
	for _, d := range digests {
		a, _ := s.Get(d)
		b, err := got.Get(d)
		if err != nil || !bytes.Equal(a, b) {
			t.Fatalf("blob %s differs after reopen", d)
		}
	}
}

// TestLoadDetectsCorruption: a byte flipped in a blob's file is found by
// the audit of a store reopened over the directory.
func TestLoadDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	disk, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := NewStoreWith(disk).Put(bytes.Repeat([]byte("payload"), 100))
	file, err := os.ReadFile(disk.Path(d))
	if err != nil {
		t.Fatal(err)
	}
	file[len(file)/2] ^= 0xFF
	if err := os.WriteFile(disk.Path(d), file, 0o644); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if bad := failing(NewStoreWith(reopened)); !slices.Equal(bad, []string{d}) {
		t.Fatalf("failing after reopen: %v, want [%s]", bad, d)
	}
}

// imageStream is the blob stream of an archive image, as earlier builds
// wrote it: one (digestLen, digest, logicalLen, compLen, stored bytes)
// record per blob of s, in digest order.
func imageStream(s *Store) []byte {
	var b []byte
	for _, d := range s.backend.Digests() {
		comp, logical, _ := s.backend.GetBlob(d)
		b = binary.LittleEndian.AppendUint16(b, uint16(len(d)))
		b = append(b, d...)
		b = binary.LittleEndian.AppendUint64(b, uint64(logical))
		b = binary.LittleEndian.AppendUint64(b, uint64(len(comp)))
		b = append(b, comp...)
	}
	return b
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := LoadUnverified([]byte{0xFF, 0xFF, 0x01}); err == nil {
		t.Fatal("garbage loaded")
	}
	// Truncated stream.
	s := NewStore()
	_, _ = s.Put([]byte("hello world hello world"))
	stream := imageStream(s)
	if _, err := LoadUnverified(stream[:len(stream)-3]); err == nil {
		t.Fatal("truncated stream loaded")
	}
	// Empty stream is a valid empty store.
	empty, err := LoadUnverified(nil)
	if err != nil || len(empty.backend.Digests()) != 0 {
		t.Fatalf("empty stream: %v", err)
	}
}

// oversizedHeader is a 20-byte store file whose one record claims a 4 GiB
// blob and delivers none of it.
func oversizedHeader() []byte {
	b := binary.LittleEndian.AppendUint16(nil, 2)
	b = append(b, "ab"...)
	b = binary.LittleEndian.AppendUint64(b, 1<<32)
	return binary.LittleEndian.AppendUint64(b, 1<<32)
}

// FuzzLoad feeds LoadUnverified arbitrary blob streams. It must never
// reserve memory on a length field's word, and whatever it accepts must be
// a store whose every blob either reads back or fails its check, and whose
// stream loads to the same blobs again.
func FuzzLoad(f *testing.F) {
	s := NewStore()
	for _, p := range [][]byte{[]byte("raw"), bytes.Repeat([]byte("deflate "), 40), nil} {
		if _, err := s.Put(p); err != nil {
			f.Fatal(err)
		}
	}
	valid := imageStream(s)
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add(oversizedHeader())
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := LoadUnverified(data)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20+32*uint64(len(data)) {
			t.Fatalf("loading %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		for _, d := range got.backend.Digests() {
			if p, err := got.Get(d); err != nil && !errors.Is(err, ErrCorrupt) || err == nil && Digest(p) != d {
				t.Fatalf("loaded blob %s neither reads back nor fails its check: %v", d, err)
			}
		}
		back, err := LoadUnverified(imageStream(got))
		if err != nil || !slices.Equal(back.backend.Digests(), got.backend.Digests()) {
			t.Fatalf("the stream of a loaded store does not load to the same blobs: %v", err)
		}
	})
}

func TestConcurrentPutGet(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := xrand.New(uint64(w))
			for i := 0; i < 200; i++ {
				data := []byte{byte(w), byte(i), byte(r.Uint64())}
				d, err := s.Put(data)
				if err != nil {
					t.Errorf("put: %v", err)
					return
				}
				got, err := s.Get(d)
				if err != nil || !bytes.Equal(got, data) {
					t.Errorf("get: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func BenchmarkPut64K(b *testing.B) {
	r := xrand.New(1)
	data := make([]byte, 64<<10)
	for i := range data {
		data[i] = byte(r.Uint64() >> 56) // compressible-ish
	}
	s := NewStore()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data[0] = byte(i) // defeat dedup
		if _, err := s.Put(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGet64K(b *testing.B) {
	s := NewStore()
	data := bytes.Repeat([]byte("daspos"), 11000)
	d, _ := s.Put(data)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get(d); err != nil {
			b.Fatal(err)
		}
	}
}
