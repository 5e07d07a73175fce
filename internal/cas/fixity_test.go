package cas

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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

// checkFanOutMatchesInline holds the chunk loop with helpers to the same
// loop without: the same verdict, the same error text — with several
// defects, the earliest chunk's — the same length and the same payload.
func checkFanOutMatchesInline(t testing.TB, digest string, blob []byte) {
	t.Helper()
	for _, keep := range []bool{false, true} {
		wantData, wantN, wantErr := checkBlob(digest, blob, keep, 1)
		for _, procs := range []int{2, 5} {
			data, n, err := checkBlob(digest, blob, keep, procs)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("keep=%v: on %d goroutines %v, on one %v", keep, procs, err, wantErr)
			}
			if n != wantN || !bytes.Equal(data, wantData) {
				t.Fatalf("keep=%v: on %d goroutines %d bytes (payload of %d), on one %d (%d)",
					keep, procs, n, len(data), wantN, len(wantData))
			}
		}
	}
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
	uneven := compressiblePayload(1000)
	f.Add(Digest(uneven), foreignChunked(f, uneven, 200, []int{200, 150, 250, 200, 200}))
	for _, bomb := range headerBombs() {
		f.Add(Digest(nil), bomb)
	}
	f.Fuzz(func(t *testing.T, digest string, blob []byte) {
		checkVerifyMatchesDecode(t, digest, blob)
		checkFanOutMatchesInline(t, digest, blob)
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

// TestForeignBlobShapes covers stored forms this store never writes. A
// flat deflate blob far past chunkThreshold (the deleted streaming ingest
// wrote these, so old stores may hold them) passes: the scratch grows for
// it. Chunked blobs whose chunks are wider than chunkPayloadSize, or not
// all of it, or both, are refused by name, on one goroutine or many.
func TestForeignBlobShapes(t *testing.T) {
	payload := compressiblePayload(3*maxPooledScratch + 12345)
	flat := encodedBlob(t, payload)
	if flat[0] != blobDeflate {
		t.Fatalf("encodeBlob wrote marker 0x%02x, want flat deflate", flat[0])
	}
	t.Run("flat-deflate", func(t *testing.T) {
		digest := Digest(payload)
		if err := checkVerifyMatchesDecode(t, digest, flat); err != nil {
			t.Fatal(err)
		}
		checkFanOutMatchesInline(t, digest, flat)
		if got, _ := DecodeBlob(digest, flat); !bytes.Equal(got, payload) {
			t.Fatal("payload differs")
		}
	})

	// Chunk lists with short chunks and chunks past the chunk size, still
	// of the length the header's arithmetic asks for.
	split := func(total, cs int, adjust map[int]int) (sizes []int) {
		for left := total; left > 0; left -= sizes[len(sizes)-1] {
			sizes = append(sizes, min(cs+adjust[len(sizes)], left))
		}
		if want := (total + cs - 1) / cs; len(sizes) != want {
			t.Fatalf("%d chunks, the header's arithmetic wants %d", len(sizes), want)
		}
		return sizes
	}
	const wide = chunkThreshold + chunkPayloadSize
	chunkedPayload := payload[:5*wide+12345]
	uneven := map[int]int{1: -4321, 3: +4300}

	for name, c := range map[string]struct {
		blob []byte
		want string
	}{
		"wide-chunks":        {foreignChunked(t, chunkedPayload, wide, split(len(chunkedPayload), wide, nil)), "chunk size 327680"},
		"wide-uneven-chunks": {foreignChunked(t, chunkedPayload, wide, split(len(chunkedPayload), wide, uneven)), "chunk size 327680"},
		"uneven-chunks":      {foreignChunked(t, chunkedPayload, chunkPayloadSize, split(len(chunkedPayload), chunkPayloadSize, uneven)), "chunk 1: decodes to 61215 bytes, its place holds 65536"},
	} {
		t.Run(name, func(t *testing.T) {
			digest := Digest(chunkedPayload)
			err := checkVerifyMatchesDecode(t, digest, c.blob)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("got %v, want %q", err, c.want)
			}
			checkFanOutMatchesInline(t, digest, c.blob)
		})
	}
}

// encodedBlob is the flat stored form encodeBlob gives a payload, at any
// size.
func encodedBlob(t testing.TB, payload []byte) []byte {
	t.Helper()
	return newDeflater().encodeBlob(payload)
}

// foreignChunked writes a chunked stored form with the given chunk size in
// its header and the payload split at the given sizes.
func foreignChunked(t testing.TB, payload []byte, cs int, sizes []int) []byte {
	t.Helper()
	blob := []byte{blobChunked}
	blob = binary.AppendUvarint(blob, uint64(len(payload)))
	blob = binary.AppendUvarint(blob, uint64(cs))
	blob = binary.AppendUvarint(blob, uint64(len(sizes)))
	for _, size := range sizes {
		chunk := payload[:size]
		payload = payload[size:]
		enc := encodedBlob(t, chunk)
		sum := sha256.Sum256(chunk)
		blob = append(blob, sum[:]...)
		blob = binary.AppendUvarint(blob, uint64(len(enc)))
		blob = append(blob, enc...)
	}
	if len(payload) != 0 {
		t.Fatalf("chunk sizes leave %d bytes of payload", len(payload))
	}
	return blob
}

// chunkOffsets returns where each chunk's recorded digest starts in a
// chunked stored blob.
func chunkOffsets(t testing.TB, blob []byte) []int {
	t.Helper()
	off := 1
	var hdr [3]uint64
	for i := range hdr {
		v, n := binary.Uvarint(blob[off:])
		hdr[i], off = v, off+n
	}
	offs := make([]int, hdr[2])
	for i := range offs {
		offs[i] = off
		encLen, n := binary.Uvarint(blob[off+sha256.Size:])
		off += sha256.Size + n + int(encLen)
	}
	if off != len(blob) {
		t.Fatalf("chunk list ends at %d of %d bytes", off, len(blob))
	}
	return offs
}

// TestChunkedEarliestDefectWins: of several defects the check reports the
// one in the earliest chunk, as the one-chunk-after-another loop does by
// construction — whichever helper finds which first, and also when the later
// defect is one the walker itself trips over.
func TestChunkedEarliestDefectWins(t *testing.T) {
	digest, blob := storedOf(t, compressiblePayload(1<<20))
	offs := chunkOffsets(t, blob)
	if len(offs) != 16 {
		t.Fatalf("%d chunks, want 16", len(offs))
	}
	for name, damage := range map[string]func([]byte) []byte{
		"body-then-digest": func(b []byte) []byte {
			b[offs[3]+sha256.Size+40] ^= 0x10
			b[offs[11]+5] ^= 0x01
			return b
		},
		"digest-then-truncation": func(b []byte) []byte {
			b[offs[3]+5] ^= 0x01
			return b[:offs[9]+sha256.Size+10]
		},
		"digest-then-bad-length": func(b []byte) []byte {
			b[offs[3]+5] ^= 0x01
			for i := 0; i < binary.MaxVarintLen64+1; i++ {
				b[offs[4]+sha256.Size+i] = 0xff
			}
			return b
		},
	} {
		t.Run(name, func(t *testing.T) {
			bad := damage(append([]byte(nil), blob...))
			checkFanOutMatchesInline(t, digest, bad)
			err := checkVerifyMatchesDecode(t, digest, bad)
			if err == nil || !strings.Contains(err.Error(), ": chunk 3: ") {
				t.Fatalf("got %v, want chunk 3's defect", err)
			}
		})
	}
}

// TestChunkedCheckKeepsTwoChunksInFlight proves the overlap without a
// clock: the first chunk to start is held until a second one has started. A
// loop that checks one chunk after another never gets there.
func TestChunkedCheckKeepsTwoChunksInFlight(t *testing.T) {
	digest, blob := storedOf(t, compressiblePayload(1<<20))
	var started atomic.Int32
	second := make(chan struct{})
	chunkStarted = func() {
		switch started.Add(1) {
		case 1:
			select {
			case <-second:
			case <-time.After(20 * time.Second):
				t.Error("no second chunk started while the first was in flight")
			}
		case 2:
			close(second)
		}
	}
	defer func() { chunkStarted = nil }()
	for _, keep := range []bool{false, true} {
		started.Store(0)
		second = make(chan struct{})
		if _, n, err := checkBlob(digest, blob, keep, 2); err != nil || n != 1<<20 {
			t.Fatalf("keep=%v: %d bytes, %v", keep, n, err)
		}
		if got := started.Load(); got != 16 {
			t.Fatalf("keep=%v: %d chunk checks started, want 16", keep, got)
		}
	}
}

// TestChunkedCheckSaturated runs many more checks than cores at once, each
// with its own helpers. A chunk is bound to its slot before a helper sees
// it; were a helper to claim a chunk first and look for room after, later
// chunks could fill every slot and the hash would wait for ever. The test's
// timeout is the assertion.
func TestChunkedCheckSaturated(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	payload := compressiblePayload(1<<20 + 777)
	copy(payload[9*chunkPayloadSize:], incompressiblePayload(2*chunkPayloadSize))
	digest, blob := storedOf(t, payload)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if g%2 == 0 {
					if n, err := VerifyBlob(digest, blob); err != nil || n != int64(len(payload)) {
						t.Errorf("VerifyBlob: %d bytes, %v", n, err)
					}
				} else if data, err := DecodeBlob(digest, blob); err != nil || !bytes.Equal(data, payload) {
					t.Errorf("DecodeBlob: %d bytes, %v", len(data), err)
				}
			}
		}()
	}
	wg.Wait()
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
	// AllocsPerRun runs on one processor, which is the inline loop above;
	// asked for helpers, the same check costs a channel and the goroutines,
	// whatever the blob's size: slots come from slotPool.
	if n := testing.AllocsPerRun(20, func() {
		if _, _, err := checkBlob(digest, blob, false, 2); err != nil {
			t.Fatal(err)
		}
	}); n > 8 {
		t.Errorf("VerifyBlob of a warm 1 MiB chunked blob on two helpers: %.0f allocations, want at most 8", n)
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

// BenchmarkEncodeBlob times the flat stored form of a tier file's bytes at
// four sizes — a small record, the 5.4 KB record whose Huffman tables
// dominate, one chunk, and a 2 MiB single stream — against the same stored
// form written by compress/flate through a pooled writer.
func BenchmarkEncodeBlob(b *testing.B) {
	raw := tierPackageFiles(b)["raw.banks"]
	for len(raw) < 2<<20 {
		raw = append(raw, raw...)
	}
	for _, size := range []struct {
		name string
		n    int
	}{{"200B", 200}, {"5.4KB", 5400}, {"64KiB", 64 << 10}, {"2MiB", 2 << 20}} {
		data := raw[:size.n]
		b.Run(size.name+"/kernel", func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := deflaterPool.Get().(*deflater)
				encodeSink = e.encodeBlob(data)
				deflaterPool.Put(e)
			}
		})
		b.Run(size.name+"/flate", func(b *testing.B) {
			zw, _ := flate.NewWriter(nil, flate.BestSpeed)
			var buf bytes.Buffer
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				buf.WriteByte(blobDeflate)
				zw.Reset(&buf)
				zw.Write(data)
				zw.Close()
				if buf.Len()-1 >= len(data) {
					buf.Reset()
					buf.WriteByte(blobRaw)
					buf.Write(data)
				}
				encodeSink = append([]byte(nil), buf.Bytes()...)
			}
		})
	}
}

// encodeSink keeps BenchmarkEncodeBlob's stored forms from being optimized
// away.
var encodeSink []byte
