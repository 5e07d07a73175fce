package cas

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"testing"
)

// storedOf returns the stored form Put gives a payload.
func storedOf(t testing.TB, payload []byte) (digest string, blob []byte) {
	t.Helper()
	s := NewStore()
	digest, err := s.Put(payload)
	if err != nil {
		t.Fatal(err)
	}
	blob, _, err = s.backend.GetBlob(digest)
	if err != nil {
		t.Fatal(err)
	}
	return digest, append([]byte(nil), blob...)
}

// checkVerifyMatchesDecode is the contract between the two entry points:
// VerifyBlob errs exactly when DecodeBlob errs, both as ErrCorrupt, and on
// success reports the length DecodeBlob returns.
func checkVerifyMatchesDecode(t testing.TB, digest string, blob []byte) error {
	t.Helper()
	data, derr := DecodeBlob(digest, blob)
	n, verr := VerifyBlob(digest, blob)
	if (derr == nil) != (verr == nil) {
		t.Fatalf("DecodeBlob err=%v, VerifyBlob err=%v", derr, verr)
	}
	if derr == nil {
		if n != int64(len(data)) {
			t.Fatalf("VerifyBlob logical=%d, DecodeBlob returned %d bytes", n, len(data))
		}
		if Digest(data) != digest {
			t.Fatalf("DecodeBlob returned a payload that does not hash to its address")
		}
		return nil
	}
	for _, err := range []error{derr, verr} {
		var ce *CorruptError
		if !errors.Is(err, ErrCorrupt) || !errors.As(err, &ce) || ce.Digest != digest {
			t.Fatalf("error %v is not a *CorruptError for %s", err, digest)
		}
	}
	var dce, vce *CorruptError
	errors.As(derr, &dce)
	errors.As(verr, &vce)
	if dce.Actual != vce.Actual || (dce.Cause == nil) != (vce.Cause == nil) {
		t.Fatalf("CorruptError shapes differ: DecodeBlob %+v, VerifyBlob %+v", dce, vce)
	}
	return derr
}

// flipSites names, for each stored form, the offsets a corruption test
// flips: the marker, the chunk header, a chunk digest, a chunk body, and
// the last byte.
func flipSites(blob []byte) map[string]int {
	sites := map[string]int{"marker": 0, "body": len(blob) / 2, "last-byte": len(blob) - 1}
	if blob[0] == blobChunked {
		hdr := 1
		for i := 0; i < 3; i++ {
			_, n := binary.Uvarint(blob[hdr:])
			hdr += n
		}
		sites["chunk-header"] = 1
		sites["chunk-count"] = hdr - 1
		sites["chunk-digest"] = hdr + 5
		sites["chunk-length"] = hdr + 32
	}
	return sites
}

func TestByteFlipsRejectedByBothEntryPoints(t *testing.T) {
	blobs, digests := readStoredForm(t)
	for name, blob := range blobs {
		if err := checkVerifyMatchesDecode(t, digests[name], blob); err != nil {
			t.Fatalf("%s: pristine blob rejected: %v", name, err)
		}
		for site, off := range flipSites(blob) {
			t.Run(name+"/"+site, func(t *testing.T) {
				bad := append([]byte(nil), blob...)
				bad[off] ^= 0x01
				if err := checkVerifyMatchesDecode(t, digests[name], bad); err == nil {
					t.Fatalf("flip at offset %d accepted", off)
				}
			})
		}
		t.Run(name+"/wrong-address", func(t *testing.T) {
			if err := checkVerifyMatchesDecode(t, digests["flat-raw"][:63]+"0", blob); err == nil {
				t.Fatal("blob accepted under another address")
			}
		})
	}
}

func FuzzVerifyMatchesDecode(f *testing.F) {
	blobs, digests := readStoredForm(f)
	for name, blob := range blobs {
		f.Add(digests[name], blob)
		for _, off := range flipSites(blob) {
			bad := append([]byte(nil), blob...)
			bad[off] ^= 0x01
			f.Add(digests[name], bad)
		}
	}
	f.Add(Digest(nil), []byte{blobRaw})
	f.Add(Digest(nil), []byte{})
	for _, bomb := range headerBombs() {
		f.Add(Digest(nil), bomb)
	}
	f.Fuzz(func(t *testing.T, digest string, blob []byte) {
		checkVerifyMatchesDecode(t, digest, blob)
	})
}

// headerBombs are chunked bodies whose headers claim a payload the bytes
// present cannot hold: 2^40 bytes in one 2^40-byte chunk (the parent commit
// died of "fatal error: runtime: out of memory" on it), 2^62 likewise
// ("panic: makeslice: cap out of range"), and a chunk size whose product
// with the chunk count wraps uint64.
func headerBombs() [][]byte {
	bomb := func(logical, cs, n uint64) []byte {
		b := []byte{blobChunked}
		b = binary.AppendUvarint(b, logical)
		b = binary.AppendUvarint(b, cs)
		b = binary.AppendUvarint(b, n)
		return append(b, make([]byte, 40)...)
	}
	return [][]byte{bomb(1<<40, 1<<40, 1), bomb(1<<62, 1<<62, 1), bomb(1<<40, 1<<63+1<<40, 2)}
}

func TestHeaderDrivenAllocationRefused(t *testing.T) {
	digest := Digest(nil)
	for i, body := range headerBombs() {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := checkVerifyMatchesDecode(t, digest, body)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("header bomb accepted")
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
				t.Fatalf("refusing a %d-byte body allocated %d bytes", len(body), grew)
			}
		})
	}
}

// TestForeignBlobShapes covers stored forms this store never writes but
// the format allows, which the scratch must grow for rather than refuse: a
// flat deflate blob far past chunkThreshold (the deleted streaming ingest
// wrote these, so old stores hold them), and a chunked blob whose chunks are
// wider than the scratch.
func TestForeignBlobShapes(t *testing.T) {
	payload := compressiblePayload(3*maxPooledScratch + 12345)
	digest := Digest(payload)

	buf, err := encodeBlob(payload)
	if err != nil {
		t.Fatal(err)
	}
	flat := append([]byte(nil), buf.Bytes()...)
	blobBufPool.Put(buf)
	if flat[0] != blobDeflate {
		t.Fatalf("encodeBlob wrote marker 0x%02x, want flat deflate", flat[0])
	}

	const wide = chunkThreshold + chunkPayloadSize
	chunked := []byte{blobChunked}
	chunked = binary.AppendUvarint(chunked, uint64(len(payload)))
	chunked = binary.AppendUvarint(chunked, wide)
	chunked = binary.AppendUvarint(chunked, uint64((len(payload)+wide-1)/wide))
	for lo := 0; lo < len(payload); lo += wide {
		chunk := payload[lo:min(lo+wide, len(payload))]
		enc, err := EncodeBlob(chunk)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(chunk)
		chunked = append(chunked, sum[:]...)
		chunked = binary.AppendUvarint(chunked, uint64(len(enc)))
		chunked = append(chunked, enc...)
	}

	for name, blob := range map[string][]byte{"flat-deflate": flat, "wide-chunks": chunked} {
		t.Run(name, func(t *testing.T) {
			if err := checkVerifyMatchesDecode(t, digest, blob); err != nil {
				t.Fatal(err)
			}
			got, _ := DecodeBlob(digest, blob)
			if !bytes.Equal(got, payload) {
				t.Fatal("payload differs")
			}
		})
	}
}

// TestVerifyBlobAllocs holds the point of the kernel: a warm check of a
// chunked blob allocates a handful of times, not a thousand.
func TestVerifyBlobAllocs(t *testing.T) {
	payload := compressiblePayload(1 << 20)
	copy(payload[5*chunkPayloadSize:], incompressiblePayload(chunkPayloadSize))
	digest, blob := storedOf(t, payload)
	if blob[0] != blobChunked {
		t.Fatalf("marker 0x%02x, want chunked", blob[0])
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := VerifyBlob(digest, blob); err != nil {
			t.Fatal(err)
		}
	}); n > 4 {
		t.Errorf("VerifyBlob of a warm 1 MiB chunked blob: %.0f allocations, want at most 4", n)
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := DecodeBlob(digest, blob); err != nil {
			t.Fatal(err)
		}
	}); n > 8 {
		t.Errorf("DecodeBlob of a warm 1 MiB chunked blob: %.0f allocations, want at most 8", n)
	}
}

// BenchmarkVerifyBlob is the verify-and-discard every trust boundary runs,
// on a tier file.
func BenchmarkVerifyBlob(b *testing.B) {
	raw := tierPackageFiles(b)["raw.banks"]
	for len(raw) < 2<<20 {
		raw = append(raw, raw...)
	}
	digest, blob := storedOf(b, raw)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := VerifyBlob(digest, blob); err != nil {
			b.Fatal(err)
		}
	}
}
