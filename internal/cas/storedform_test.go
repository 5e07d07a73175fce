package cas

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// seededText is at least size bytes of analysis-like text: a small
// vocabulary and numbers, so deflate finds both matches and literals.
func seededText(rng *rand.Rand, size int) []byte {
	words := []string{"selection", "muon", "electron", "jet", "vertex", "trigger", "luminosity", "histogram"}
	var text bytes.Buffer
	for text.Len() < size {
		fmt.Fprintf(&text, "%s %d\n", words[rng.Intn(len(words))], rng.Intn(100000))
	}
	return text.Bytes()
}

// storedFormPayloads are the seeded payloads behind testdata/stored-form:
// one per stored form, and two flat ones longer than a 65,535-byte deflate
// block. The chunked one mixes chunks deflate shrinks with one it cannot,
// and ends on a short chunk. flat-two-blocks holds matches into the
// previous block; flat-huff-tail ends on a 65-byte block, which is written
// Huffman-only.
func storedFormPayloads() map[string][]byte {
	rng := rand.New(rand.NewSource(1206))
	text := seededText(rng, 20000)
	noise := make([]byte, 4096)
	rng.Read(noise)

	big := make([]byte, chunkThreshold+4097)
	for i := range big[:3*chunkPayloadSize] {
		big[i] = byte(i / 97)
	}
	rng.Read(big[3*chunkPayloadSize : 4*chunkPayloadSize])
	copy(big[4*chunkPayloadSize:], text)

	long := seededText(rand.New(rand.NewSource(1512)), 2*maxStoreBlock)

	return map[string][]byte{
		"flat-deflate": text, "flat-raw": noise, "chunked": big,
		"flat-two-blocks": long[:2*maxStoreBlock], "flat-huff-tail": long[:maxStoreBlock+65],
	}
}

var storedFormMarkers = map[string]byte{
	"flat-deflate": blobDeflate, "flat-raw": blobRaw, "chunked": blobChunked,
	"flat-two-blocks": blobDeflate, "flat-huff-tail": blobDeflate,
}

// readStoredForm loads the checked-in stored blobs and their digests.
func readStoredForm(t testing.TB) (blobs map[string][]byte, digests map[string]string) {
	t.Helper()
	dir := filepath.Join("testdata", "stored-form")
	manifest, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	blobs, digests = make(map[string][]byte), make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(manifest)), "\n") {
		name, digest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("MANIFEST line %q", line)
		}
		blob, err := os.ReadFile(filepath.Join(dir, name+".blob"))
		if err != nil {
			t.Fatal(err)
		}
		blobs[name], digests[name] = blob, digest
	}
	if len(blobs) != len(storedFormMarkers) {
		t.Fatalf("MANIFEST lists %d blobs, want %d", len(blobs), len(storedFormMarkers))
	}
	return blobs, digests
}

// TestStoredFormUnchanged pins the stored form across the rebuilt read
// side: the blobs under testdata/stored-form were written by the commit
// before the fixity kernel (compress/flate on both sides). They must decode
// and verify here, and encoding the same payloads here must reproduce them
// byte for byte, whatever the worker count — in memory and in the file a
// DiskBackend writes.
func TestStoredFormUnchanged(t *testing.T) {
	blobs, digests := readStoredForm(t)
	for name, payload := range storedFormPayloads() {
		t.Run(name, func(t *testing.T) {
			blob, digest := blobs[name], digests[name]
			if blob[0] != storedFormMarkers[name] {
				t.Fatalf("marker 0x%02x, want 0x%02x", blob[0], storedFormMarkers[name])
			}
			if digest != Digest(payload) {
				t.Fatalf("checked-in digest %s is not the payload's (%s)", digest, Digest(payload))
			}
			got, err := DecodeBlob(digest, blob)
			if err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("DecodeBlob of the checked-in blob: err=%v, equal=%v", err, bytes.Equal(got, payload))
			}
			if n, err := VerifyBlob(digest, blob); err != nil || n != int64(len(payload)) {
				t.Fatalf("VerifyBlob of the checked-in blob: n=%d err=%v, want %d", n, err, len(payload))
			}
			for _, workers := range []int{1, 8} {
				s := NewStore()
				if _, err := s.PutWorkers(payload, workers); err != nil {
					t.Fatal(err)
				}
				stored, _, err := s.backend.GetBlob(digest)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(stored, blob) {
					t.Fatalf("workers=%d: re-encoding differs from the checked-in blob (%d vs %d bytes)", workers, len(stored), len(blob))
				}
			}
			// A DiskBackend's file is the stored form, byte for byte.
			disk, err := OpenDisk(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := NewStoreWith(disk).Put(payload); err != nil {
				t.Fatal(err)
			}
			if file, err := os.ReadFile(disk.Path(digest)); err != nil || !bytes.Equal(file, blob) {
				t.Fatalf("DiskBackend file differs from the checked-in blob (%d vs %d bytes, %v)", len(file), len(blob), err)
			}
		})
	}
}
