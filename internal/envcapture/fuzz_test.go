package envcapture_test

import (
	"bytes"
	"os"
	"runtime"
	"testing"

	"daspos/internal/archive"
	"daspos/internal/core"
	"daspos/internal/envcapture"
)

// FuzzDecode feeds Decode what core.FromArchive hands it: the environment
// manifest of an archived capsule, seeded with the one the demo capsule
// image carries. Decode must not panic, must allocate within a bound set by
// its input, and a manifest it accepts must re-encode to bytes that decode
// to an equal manifest — one that encodes to the same bytes again.
func FuzzDecode(f *testing.F) {
	f.Add(demoCapsuleFile(f, core.PathEnvironment))
	f.Add([]byte(`{"packages":[{"name":"a","version":"1","deps":[]}]}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := envcapture.Decode(data)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+64*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		enc, err := m.Encode()
		if err != nil {
			t.Fatalf("an accepted manifest does not encode: %v", err)
		}
		back, err := envcapture.Decode(enc)
		if err != nil {
			t.Fatalf("a re-encoded manifest does not decode: %v\n%s", err, enc)
		}
		if again, err := back.Encode(); err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("a re-encoded manifest decodes to another one: %v\n%s\n%s", err, enc, again)
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
