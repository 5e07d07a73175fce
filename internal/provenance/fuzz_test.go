package provenance_test

import (
	"bytes"
	"os"
	"runtime"
	"testing"

	"daspos/internal/archive"
	"daspos/internal/core"
	"daspos/internal/provenance"
)

// FuzzReadJSON feeds ReadJSON what core.FromArchive hands it: the
// provenance chain of an archived capsule, seeded with the one the demo
// capsule image carries. ReadJSON must not panic, must allocate within a
// bound set by its input, and a store it accepts must write bytes that read
// back to an equal store — one that writes the same bytes again.
func FuzzReadJSON(f *testing.F) {
	seed := demoCapsuleFile(f, core.PathProvenance)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := provenance.ReadJSON(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+64*uint64(len(data)) {
			t.Fatalf("reading %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		var enc bytes.Buffer
		if err := s.WriteJSON(&enc); err != nil {
			t.Fatalf("an accepted store does not write: %v", err)
		}
		back, err := provenance.ReadJSON(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("a written store does not read back: %v\n%s", err, enc.Bytes())
		}
		var again bytes.Buffer
		if err := back.WriteJSON(&again); err != nil || !bytes.Equal(again.Bytes(), enc.Bytes()) {
			t.Fatalf("a written store reads back to another one: %v\n%s\n%s", err, enc.Bytes(), again.Bytes())
		}
	})
}

// demoCapsuleFile returns a file of the demo capsule in the archive image
// cmd/daspos-archive's golden holds.
func demoCapsuleFile(tb testing.TB, path string) []byte {
	tb.Helper()
	image, err := os.ReadFile("../../cmd/daspos-archive/testdata/parent.daspos")
	if err != nil {
		tb.Fatal(err)
	}
	a, err := archive.ReadImage(image)
	if err != nil {
		tb.Fatal(err)
	}
	data, err := a.Fetch(a.IDs()[0], path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}
