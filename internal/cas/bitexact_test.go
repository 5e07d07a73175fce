package cas

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

// The kernel passes a stored blob only as its writer wrote it. Each test
// here changes a valid stored form where compress/flate's reader does not
// look — a single bit, a byte past the end, a padding bit — and demands a
// refusal that names the defect.

// smallDeflatedForms are two flat deflate stored forms Put writes, 40 and 28
// bytes long. Each ends, as every stream compress/flate writes does, in an
// empty final stored block, so it has padding bits to flip and a final bit
// to set early.
func smallDeflatedForms(t testing.TB) map[string][]byte {
	t.Helper()
	forms := map[string][]byte{}
	for size, payload := range map[int][]byte{
		40: bytes.Repeat([]byte("fixity "), 225),
		28: bytes.Repeat([]byte("abc"), 93),
	} {
		_, blob := storedOf(t, payload)
		if len(blob) != size || blob[0] != blobDeflate {
			t.Fatalf("stored form of %d bytes, marker 0x%02x; want %d bytes, flat deflate", len(blob), blob[0], size)
		}
		forms[fmt.Sprintf("flat-deflate-%d", size)] = blob
	}
	return forms
}

// lastPiece returns a chunked blob's last stored piece, and withPiece,
// which gives the blob with that piece swapped for another and its encLen
// adjusted.
func lastPiece(t testing.TB, blob []byte) (piece []byte, withPiece func([]byte) []byte) {
	t.Helper()
	offs := chunkOffsets(t, blob)
	off := offs[len(offs)-1] + sha256.Size
	_, n := binary.Uvarint(blob[off:])
	piece = blob[off+n:]
	return piece, func(p []byte) []byte {
		out := binary.AppendUvarint(append([]byte(nil), blob[:off]...), uint64(len(p)))
		return append(out, p...)
	}
}

// chunkedWithDeflatedTail is the chunked form of four full chunks and a
// remainder of compressible bytes, long enough (minCompressSize and more)
// that Put stores it deflated.
func chunkedWithDeflatedTail(t testing.TB) (digest string, blob []byte) {
	t.Helper()
	digest, blob = storedOf(t, compressiblePayload(chunkThreshold+1000))
	if piece, _ := lastPiece(t, blob); piece[0] != blobDeflate {
		t.Fatalf("last chunk stored with marker 0x%02x, want deflate", piece[0])
	}
	return digest, blob
}

// TestBitExactFlipsRefused flips every bit of the small flat deflate forms
// and of a chunked blob's last piece, one at a time: no flip passes.
func TestBitExactFlipsRefused(t *testing.T) {
	flip := func(b []byte, bit int) []byte {
		b = append([]byte(nil), b...)
		b[bit/8] ^= 1 << (bit % 8)
		return b
	}
	for name, form := range smallDeflatedForms(t) {
		t.Run(name, func(t *testing.T) {
			digest := Digest(mustDecode(t, form))
			for bit := range 8 * len(form) {
				if err := checkVerifyMatchesDecode(t, digest, flip(form, bit)); err == nil {
					t.Errorf("flip of bit %d passes", bit)
				}
			}
		})
	}
	t.Run("chunked-last-piece", func(t *testing.T) {
		digest, blob := chunkedWithDeflatedTail(t)
		piece, withPiece := lastPiece(t, blob)
		for bit := range 8 * len(piece) {
			bad := withPiece(flip(piece, bit))
			if err := checkVerifyMatchesDecode(t, digest, bad); err == nil {
				t.Errorf("flip of bit %d of the %d-byte piece passes", bit, len(piece))
			}
			checkFanOutMatchesInline(t, digest, bad)
		}
	})
}

// mustDecode is the payload of a flat deflate stored form, read by
// compress/flate.
func mustDecode(t testing.TB, form []byte) []byte {
	t.Helper()
	data, err := io.ReadAll(flate.NewReader(bytes.NewReader(form[1:])))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestBitExactAppendRefused: one byte after a deflate stream, flat or in a
// chunk's piece, is refused as trailing input, whatever its value.
func TestBitExactAppendRefused(t *testing.T) {
	for name, form := range smallDeflatedForms(t) {
		digest := Digest(mustDecode(t, form))
		for _, b := range []byte{0, 7} {
			err := checkVerifyMatchesDecode(t, digest, append(append([]byte(nil), form...), b))
			if !errors.Is(err, errInflateTrailing) {
				t.Errorf("%s + byte 0x%02x: %v, want %v", name, b, err, errInflateTrailing)
			}
		}
	}
	digest, blob := chunkedWithDeflatedTail(t)
	piece, withPiece := lastPiece(t, blob)
	for _, b := range []byte{0, 7} {
		bad := withPiece(append(append([]byte(nil), piece...), b))
		err := checkVerifyMatchesDecode(t, digest, bad)
		if !errors.Is(err, errInflateTrailing) || !strings.Contains(err.Error(), ": chunk 4: ") {
			t.Errorf("last piece + byte 0x%02x: %v, want chunk 4's %v", b, err, errInflateTrailing)
		}
		checkFanOutMatchesInline(t, digest, bad)
	}
}

// TestBitExactPaddingRefused: a stream compress/flate reads to the right
// payload, but with a set bit where its writer pads to a byte boundary —
// before a stored block's LEN, or after the final block — is refused.
func TestBitExactPaddingRefused(t *testing.T) {
	payload := []byte("padded")
	streams := map[string][]byte{}
	{
		// A fixed block of the first byte, then a final stored block of the
		// rest, its header padded with ones.
		var w bitWriter
		w.bits(0, 1)
		w.bits(1, 2)
		w.fixedLit(uint32(payload[0]))
		w.fixedLit(256)
		w.bits(1, 1)
		w.bits(0, 2)
		if w.n == 0 {
			t.Fatal("the stored header ends on a byte boundary: no padding to set")
		}
		w.bits(0xff, 8-w.n)
		rest := payload[1:]
		w.out = append(w.out, byte(len(rest)), 0, ^byte(len(rest)), 0xff)
		streams["before-stored-len"] = append(w.out, rest...)
	}
	{
		// One final fixed block, the bits after its end-of-block code ones.
		var w bitWriter
		w.bits(1, 1)
		w.bits(1, 2)
		for _, c := range payload {
			w.fixedLit(uint32(c))
		}
		w.fixedLit(256)
		if w.n == 0 {
			t.Fatal("the block ends on a byte boundary: no padding to set")
		}
		w.bits(0xff, 8-w.n)
		streams["after-final-block"] = w.out
	}
	for name, stream := range streams {
		t.Run(name, func(t *testing.T) {
			if got := mustDecode(t, append([]byte{blobDeflate}, stream...)); !bytes.Equal(got, payload) {
				t.Fatalf("compress/flate reads %q, want %q", got, payload)
			}
			err := checkVerifyMatchesDecode(t, Digest(payload), append([]byte{blobDeflate}, stream...))
			if !errors.Is(err, errInflatePadding) {
				t.Fatalf("got %v, want %v", err, errInflatePadding)
			}
		})
	}
}
