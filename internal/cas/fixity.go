package cas

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"runtime"
	"sync"
)

// The fixity kernel: the one routine behind DecodeBlob and VerifyBlob. Both
// walk a stored blob once and make the same checks — marker, chunk-header
// plausibility and consistency, per-chunk SHA-256, trailing bytes,
// reassembled length, whole-payload SHA-256 against the address — and
// differ only in whether the payload is kept. Nothing is allocated from an
// untrusted header: verification works in pooled chunks of scratch, and
// DecodeBlob allocates the payload only after bounding it by what the bytes
// actually present could inflate to.

// fixity is the pooled state of one check — and, borrowed by the check of a
// chunked blob, of one of its chunks in flight (see chunks).
type fixity struct {
	inflater
	// scratch is where a piece is inflated when the payload is not kept.
	// It starts big enough for anything Put writes (flat blobs are under
	// chunkThreshold, chunks are chunkPayloadSize) and doubles — after
	// that many bytes really came out — for anything else.
	scratch []byte
	whole   hash.Hash // SHA-256 of the logical payload so far
	sum     [sha256.Size]byte

	// One chunk: what the walker read from the chunk list and where a kept
	// chunk goes, then what checkChunk made of it.
	want, enc, dst []byte
	keep           bool
	data           []byte
	err            error
	pending        sync.WaitGroup // held while a helper owns the fields above
}

const (
	// maxPooledScratch is the largest scratch a pooled fixity keeps; one
	// grown past it for a foreign blob is dropped rather than pinned.
	maxPooledScratch = 1 << 20

	// maxChunkHelpers caps the goroutines one chunked blob is checked on:
	// the whole-payload hash stays on one, so many more would idle.
	maxChunkHelpers = 8
)

var fixityPool = sync.Pool{
	New: func() any {
		return &fixity{scratch: make([]byte, chunkThreshold), whole: sha256.New()}
	},
}

// slotPool holds the fixities a chunked blob's check borrows for its chunks
// in flight. They are given the room to decode into, so they carry an
// inflater and the chunk's fields, and neither scratch nor hash.
var slotPool = sync.Pool{New: func() any { return new(fixity) }}

// VerifyBlob fixity-checks a marker-framed stored blob against its content
// address and returns the logical payload size, without materialising the
// payload. It makes every check DecodeBlob makes and fails on exactly the
// same inputs with the same *CorruptError shapes; it is what a trust
// boundary calls when it only needs the verdict — a storage node on ingest
// and on node-local verify, a cluster client on replica reads, an audit.
func VerifyBlob(digest string, comp []byte) (logical int64, err error) {
	_, logical, err = checkBlob(digest, comp, false, runtime.GOMAXPROCS(0))
	return logical, err
}

// DecodeBlob decodes a marker-framed stored blob and fixity-checks the
// payload against its content address, returning the logical bytes.
func DecodeBlob(digest string, comp []byte) ([]byte, error) {
	data, _, err := checkBlob(digest, comp, true, runtime.GOMAXPROCS(0))
	return data, err
}

// checkBlob is the kernel. procs is how many goroutines the chunks of a
// chunked blob may be checked on; the verdict does not depend on it.
func checkBlob(digest string, comp []byte, keep bool, procs int) ([]byte, int64, error) {
	if len(comp) == 0 {
		return nil, 0, &CorruptError{Digest: digest, Cause: fmt.Errorf("empty stored blob")}
	}
	k := fixityPool.Get().(*fixity)
	defer k.release(&fixityPool)
	k.whole.Reset()

	var payload []byte
	var logical int64
	var err error
	if comp[0] == blobChunked {
		payload, logical, err = k.chunked(comp[1:], keep, procs)
	} else {
		payload, logical, err = k.flat(comp, keep)
	}
	if err != nil {
		return nil, 0, &CorruptError{Digest: digest, Cause: err}
	}
	var actual [2 * sha256.Size]byte
	hex.Encode(actual[:], k.whole.Sum(k.sum[:0]))
	if string(actual[:]) != digest {
		return nil, 0, &CorruptError{Digest: digest, Actual: string(actual[:])}
	}
	return payload, logical, nil
}

// release hands the fixity back to the pool it came from, holding on to
// nothing of the blob.
func (k *fixity) release(pool *sync.Pool) {
	k.want, k.enc, k.dst, k.data, k.err = nil, nil, nil, nil, nil
	if len(k.scratch) <= maxPooledScratch {
		pool.Put(k)
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
func (k *fixity) chunked(body []byte, keep bool, procs int) ([]byte, int64, error) {
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
	helpers := int(min(uint64(min(procs, maxChunkHelpers)), nChunks))
	err := k.chunks(rest, logical, cs, nChunks, payload, keep, helpers)
	if err == errUneven {
		k.whole.Reset()
		err = k.chunks(rest, logical, cs, nChunks, payload, keep, 1)
	}
	if err != nil {
		return nil, 0, err
	}
	return payload, int64(logical), nil
}

// errUneven reports that a chunk did not fit the cs bytes its place in the
// list gives it, or that a kept one did not fill them, so where the chunks
// after it belong is known only once it and every chunk before it has been
// inflated. Put writes no such blob; one is settled by checking it again
// without helpers.
var errUneven = errors.New("chunk sizes are uneven")

// chunks is the chunk loop: it walks the chunk list of a chunked body once,
// has every chunk inflated and held to its recorded digest, and feeds the
// chunks to the whole-payload hash in order. With helpers > 1 that many
// goroutines do the inflating and chunk hashing, each chunk in a slot
// borrowed from slotPool and straight into its place in the payload — or,
// when the payload is not kept, into a place in k's scratch — while this
// goroutine walks ahead of them and hashes behind them; otherwise it does
// the same per chunk itself, in k. A chunk is bound to its slot here, before
// any helper sees it, and slots are emptied in the order they were filled:
// a helper never waits for room, and the chunk the hash needs next is never
// queued behind a later one.
func (k *fixity) chunks(list []byte, logical, cs, nChunks uint64, payload []byte, keep bool, helpers int) (err error) {
	var ring [2 * maxChunkHelpers]*fixity
	slots := ring[:1]
	slots[0] = k
	// Two slots a helper: a chunk to work on, and a finished one waiting
	// its turn at the hash. A check that keeps nothing has k's scratch for
	// chunks in flight: four of Put's.
	n := 2 * helpers
	if !keep {
		n = int(min(uint64(n), uint64(len(k.scratch))/cs))
	}
	var work chan *fixity
	if helpers > 1 && n > 1 {
		slots = ring[:n]
		for i := range slots {
			slots[i] = slotPool.Get().(*fixity)
		}
		work = make(chan *fixity, n)
		for range min(helpers, n) {
			go chunkHelper(work)
		}
		defer func() {
			close(work) // every slot sent has been waited for: the helpers are idle
			for _, s := range slots {
				s.release(&slotPool)
			}
		}()
	}

	var (
		width   = uint64(len(slots))
		walked  uint64 // chunks read from the list and bound to a slot
		walkErr error  // what stopped the walk short of nChunks
		total   uint64
	)
	for done := uint64(0); ; done++ {
		for ; err == nil && walkErr == nil && walked < nChunks && walked-done < width; walked++ {
			s := slots[walked%width]
			if s.want, s.enc, list, walkErr = nextChunk(list); walkErr != nil {
				break
			}
			// A helper has no scratch: it decodes into the room it is given.
			s.keep = keep || work != nil
			if work != nil {
				if lo := walked * cs; keep {
					hi := min(lo+cs, logical)
					s.dst = payload[lo:hi:hi]
				} else {
					lo %= width * cs
					s.dst = k.scratch[lo : lo+cs : lo+cs]
				}
				s.pending.Add(1)
				work <- s
			}
		}
		if done == walked {
			break
		}
		s := slots[done%width]
		if work != nil {
			s.pending.Wait()
			if err != nil {
				continue // only waiting for what is in flight
			}
			if s.err == errDstFull || keep && s.err == nil && len(s.data) != len(s.dst) {
				err = errUneven
				continue
			}
		} else {
			if keep {
				s.dst = payload[total:]
			}
			s.checkChunk()
		}
		if s.err != nil {
			err = fmt.Errorf("chunk %d: %w", done, s.err)
			continue
		}
		k.whole.Write(s.data)
		total += uint64(len(s.data))
	}
	switch {
	case err != nil:
		return err
	case walkErr != nil:
		return fmt.Errorf("chunk %d: %w", walked, walkErr)
	case len(list) != 0:
		return fmt.Errorf("chunked blob has %d trailing bytes", len(list))
	case total != logical:
		return fmt.Errorf("chunked blob reassembles to %d bytes, header says %d", total, logical)
	}
	return nil
}

// nextChunk reads one entry off the front of a chunk list: the recorded
// digest, the stored piece, and the list after it.
func nextChunk(list []byte) (want, enc, rest []byte, err error) {
	if len(list) < sha256.Size {
		return nil, nil, list, fmt.Errorf("truncated digest")
	}
	encLen, n := binary.Uvarint(list[sha256.Size:])
	if n <= 0 {
		return nil, nil, list, fmt.Errorf("length: malformed varint")
	}
	rest = list[sha256.Size+n:]
	if uint64(len(rest)) < encLen {
		return nil, nil, list, fmt.Errorf("truncated body (%d of %d bytes)", len(rest), encLen)
	}
	return list[:sha256.Size], rest[:encLen], rest[encLen:], nil
}

// chunkHelper checks the chunks it is sent until the blob's check is over.
func chunkHelper(work <-chan *fixity) {
	for s := range work {
		s.checkChunk()
		s.pending.Done()
	}
}

// chunkStarted, when a test sets it, is called at the start of every
// chunk's check, on the goroutine that makes it.
var chunkStarted func()

// checkChunk inflates the chunk the fixity was bound to and holds it to its
// recorded digest.
func (k *fixity) checkChunk() {
	if chunkStarted != nil {
		chunkStarted()
	}
	k.data, k.err = k.piece(k.enc, k.dst, k.keep)
	if k.err != nil {
		return
	}
	if got := sha256.Sum256(k.data); got != [sha256.Size]byte(k.want) {
		k.err = fmt.Errorf("content hashes to %x, recorded %x", got, k.want)
	}
}
