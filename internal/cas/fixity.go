package cas

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"sync"
)

// The fixity kernel: the one routine behind DecodeBlob and VerifyBlob. Both
// walk a stored blob once and make the same checks — marker, chunk-header
// plausibility and consistency, per-chunk SHA-256, trailing bytes,
// reassembled length, whole-payload SHA-256 against the address — and
// differ only in whether the payload is kept. Nothing is allocated from an
// untrusted header: verification works in one pooled chunk of scratch, and
// DecodeBlob allocates the payload only after bounding it by what the bytes
// actually present could inflate to.

// fixity is the pooled state of one check.
type fixity struct {
	inflater
	// scratch is where a piece is inflated when the payload is not kept.
	// It starts big enough for anything Put writes (flat blobs are under
	// chunkThreshold, chunks are chunkPayloadSize) and doubles — after
	// that many bytes really came out — for anything else.
	scratch []byte
	whole   hash.Hash // SHA-256 of the logical payload so far
	sum     [sha256.Size]byte
}

// maxPooledScratch is the largest scratch a pooled fixity keeps; one grown
// past it for a foreign blob is dropped rather than pinned.
const maxPooledScratch = 1 << 20

var fixityPool = sync.Pool{
	New: func() any {
		return &fixity{scratch: make([]byte, chunkThreshold), whole: sha256.New()}
	},
}

// VerifyBlob fixity-checks a marker-framed stored blob against its content
// address and returns the logical payload size, without materialising the
// payload. It makes every check DecodeBlob makes and fails on exactly the
// same inputs with the same *CorruptError shapes; it is what a trust
// boundary calls when it only needs the verdict — a storage node on ingest
// and on node-local verify, a cluster client on replica reads, an audit.
func VerifyBlob(digest string, comp []byte) (logical int64, err error) {
	_, logical, err = checkBlob(digest, comp, false)
	return logical, err
}

// DecodeBlob decodes a marker-framed stored blob and fixity-checks the
// payload against its content address, returning the logical bytes.
func DecodeBlob(digest string, comp []byte) ([]byte, error) {
	data, _, err := checkBlob(digest, comp, true)
	return data, err
}

func checkBlob(digest string, comp []byte, keep bool) ([]byte, int64, error) {
	if len(comp) == 0 {
		return nil, 0, &CorruptError{Digest: digest, Expected: digest, Cause: fmt.Errorf("empty stored blob")}
	}
	k := fixityPool.Get().(*fixity)
	defer k.release()
	k.whole.Reset()

	var payload []byte
	var logical int64
	var err error
	if comp[0] == blobChunked {
		payload, logical, err = k.chunked(comp[1:], keep)
	} else {
		payload, logical, err = k.flat(comp, keep)
	}
	if err != nil {
		return nil, 0, &CorruptError{Digest: digest, Expected: digest, Cause: err}
	}
	var actual [2 * sha256.Size]byte
	hex.Encode(actual[:], k.whole.Sum(k.sum[:0]))
	if string(actual[:]) != digest {
		return nil, 0, &CorruptError{Digest: digest, Expected: digest, Actual: string(actual[:])}
	}
	return payload, logical, nil
}

func (k *fixity) release() {
	if len(k.scratch) <= maxPooledScratch {
		fixityPool.Put(k)
	}
}

// piece decodes one marker-framed piece — a flat blob, or one chunk of a
// chunked one — without any fixity check. With keep, the logical bytes are
// written to the front of dst, and a piece longer than dst is an error;
// without, dst is ignored and the bytes are returned in place (raw) or in
// the scratch (deflate), valid until the next call.
func (k *fixity) piece(enc, dst []byte, keep bool) ([]byte, error) {
	if len(enc) == 0 {
		return nil, fmt.Errorf("empty stored blob")
	}
	switch enc[0] {
	case blobRaw:
		if !keep {
			return enc[1:], nil
		}
		if len(enc)-1 > len(dst) {
			return nil, errDstFull
		}
		return dst[:copy(dst, enc[1:])], nil
	case blobDeflate:
		if keep {
			n, err := k.inflate(dst, enc[1:])
			return dst[:n], err
		}
		for {
			n, err := k.inflate(k.scratch, enc[1:])
			if err != errDstFull {
				return k.scratch[:n], err
			}
			k.scratch = make([]byte, 2*len(k.scratch))
		}
	default:
		return nil, fmt.Errorf("unknown blob encoding 0x%02x", enc[0])
	}
}

// flat checks a flat (raw or deflate) blob. Its logical size is nowhere in
// the stored form, so a kept payload is copied out at its exact size once
// the piece has been decoded.
func (k *fixity) flat(comp []byte, keep bool) ([]byte, int64, error) {
	data, err := k.piece(comp, nil, false)
	if err != nil {
		return nil, 0, err
	}
	k.whole.Write(data)
	if !keep {
		return nil, int64(len(data)), nil
	}
	// Copy: backends may return their stored slice, the scratch is
	// reused, and callers own the payload they get back.
	return append([]byte(nil), data...), int64(len(data)), nil
}

// chunked checks a chunked stored body (the bytes after the marker; layout
// in chunked.go), verifying each chunk against its recorded digest. The
// caller still checks the whole payload against the address, so a
// forged-but-consistent chunk list cannot spoof a blob.
func (k *fixity) chunked(body []byte, keep bool) ([]byte, int64, error) {
	rest := body
	var hdr [3]uint64 // logicalSize, chunkSize, nChunks
	for i := range hdr {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, 0, fmt.Errorf("chunked header: malformed varint")
		}
		hdr[i], rest = v, rest[n:]
	}
	logical, cs, nChunks := hdr[0], hdr[1], hdr[2]
	// No field may exceed what the bytes present could hold (every chunk
	// costs a digest, and deflate expands at most maxInflateRatio to one);
	// bounded so, the arithmetic below cannot overflow and the payload
	// allocation is proportional to the input, whatever the header claims.
	limit := uint64(len(body)) * maxInflateRatio
	if cs == 0 || nChunks == 0 || logical > limit || cs > limit || nChunks > uint64(len(body))/sha256.Size {
		return nil, 0, fmt.Errorf("chunked header implausible: logical=%d chunkSize=%d chunks=%d", logical, cs, nChunks)
	}
	if want := (logical + cs - 1) / cs; want != nChunks {
		return nil, 0, fmt.Errorf("chunked header inconsistent: %d bytes in %d-byte chunks needs %d chunks, header says %d",
			logical, cs, want, nChunks)
	}

	var payload []byte
	if keep {
		payload = make([]byte, logical)
	}
	total := uint64(0)
	for i := uint64(0); i < nChunks; i++ {
		if len(rest) < sha256.Size {
			return nil, 0, fmt.Errorf("chunk %d: truncated digest", i)
		}
		want := rest[:sha256.Size]
		encLen, n := binary.Uvarint(rest[sha256.Size:])
		if n <= 0 {
			return nil, 0, fmt.Errorf("chunk %d: length: malformed varint", i)
		}
		rest = rest[sha256.Size+n:]
		if uint64(len(rest)) < encLen {
			return nil, 0, fmt.Errorf("chunk %d: truncated body (%d of %d bytes)", i, len(rest), encLen)
		}
		enc := rest[:encLen]
		rest = rest[encLen:]

		var dst []byte
		if keep {
			dst = payload[total:]
		}
		chunk, err := k.piece(enc, dst, keep)
		if err != nil {
			return nil, 0, fmt.Errorf("chunk %d: %w", i, err)
		}
		if got := sha256.Sum256(chunk); got != [sha256.Size]byte(want) {
			return nil, 0, fmt.Errorf("chunk %d: content hashes to %x, recorded %x", i, got, want)
		}
		k.whole.Write(chunk)
		total += uint64(len(chunk))
	}
	if len(rest) != 0 {
		return nil, 0, fmt.Errorf("chunked blob has %d trailing bytes", len(rest))
	}
	if total != logical {
		return nil, 0, fmt.Errorf("chunked blob reassembles to %d bytes, header says %d", total, logical)
	}
	return payload, int64(logical), nil
}
