package cas

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime"
	"sync"
)

// The fixity kernel: the one routine behind DecodeBlob and VerifyBlob. Both
// walk a stored blob once, make the same checks, and differ only in whether
// the payload is kept. A blob passes only in a layout its writers write, as
// they write it: flat raw (PutRaw, and Put of what deflate cannot shrink);
// flat deflate, one stream that ends at the blob's last byte with zero
// padding bits (Put under chunkThreshold; older builds, at any size); or
// chunked (Put from chunkThreshold up; layout in chunked.go), each 64 KiB
// chunk but the last a raw or deflate piece held to the same rules that
// fills exactly its room and matches its recorded SHA-256. The whole
// payload's SHA-256 must be the address. Nothing is allocated from an
// untrusted header: verification works in pooled chunks of scratch, and
// DecodeBlob allocates the payload only after bounding it by what the bytes
// actually present could inflate to.

// fixity is the pooled state of one check — and, borrowed by the check of a
// chunked blob, of one of its chunks in flight (see chunks).
type fixity struct {
	inflater
	// scratch is where a piece is decoded when the payload is not kept.
	// It starts big enough for anything Put writes (flat blobs are under
	// chunkThreshold, and it holds four chunks in flight) and only a flat
	// blob of a size Put does not write grows it.
	scratch []byte
	whole   hash.Hash // SHA-256 of the logical payload so far
	sum     [sha256.Size]byte

	// One chunk: what the walker read from the chunk list and the room it
	// decodes into, then checkChunk's verdict on it.
	want, enc, dst []byte
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
	k.want, k.enc, k.dst, k.err = nil, nil, nil, nil
	if len(k.scratch) <= maxPooledScratch {
		pool.Put(k)
	}
}

// flat checks a flat blob: raw, or deflate of a size nowhere in the
// stored form, decoded into the scratch, which doubles — after that many
// bytes really came out — until the stream fits. A kept payload is copied
// out at its exact size.
func (k *fixity) flat(comp []byte, keep bool) ([]byte, int64, error) {
	var data []byte
	switch comp[0] {
	case blobRaw:
		data = comp[1:]
	case blobDeflate:
		n, err := k.inflate(k.scratch, comp[1:])
		for ; err == errDstFull; n, err = k.inflate(k.scratch, comp[1:]) {
			k.scratch = make([]byte, 2*len(k.scratch))
		}
		if err != nil {
			return nil, 0, err
		}
		data = k.scratch[:n]
	default:
		return nil, 0, fmt.Errorf("unknown blob encoding 0x%02x", comp[0])
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
	if cs != chunkPayloadSize {
		return nil, 0, fmt.Errorf("chunked header: chunk size %d, the format's is %d", cs, chunkPayloadSize)
	}
	// No field may exceed what the bytes present could hold (every chunk
	// costs a digest, and deflate expands at most maxInflateRatio to one);
	// bounded so, the payload allocation is proportional to the input,
	// whatever the header claims.
	if nChunks == 0 || logical > uint64(len(body))*maxInflateRatio || nChunks > uint64(len(body))/sha256.Size {
		return nil, 0, fmt.Errorf("chunked header implausible: logical=%d chunks=%d", logical, nChunks)
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
	if err := k.chunks(rest, logical, nChunks, payload, helpers); err != nil {
		return nil, 0, err
	}
	return payload, int64(logical), nil
}

// chunks is the chunk loop: it walks the chunk list of a chunked body once,
// has every chunk decoded into its room and held to its recorded digest,
// and feeds the chunks to the whole-payload hash in order. A chunk's room
// is its place in the payload, or — when the payload is not kept — a
// place in k's scratch, and it must fill it exactly: every chunk but the
// last is chunkPayloadSize bytes, the last the remainder. With helpers > 1
// that many goroutines do the decoding and chunk hashing, each chunk in a
// slot borrowed from slotPool, while this goroutine walks ahead of them
// and hashes behind them; otherwise it does the same per chunk itself, in
// k. A chunk is bound to its slot here, before any helper sees it, and
// slots are emptied in the order they were filled: a helper never waits
// for room, and the chunk the hash needs next is never queued behind a
// later one.
func (k *fixity) chunks(list []byte, logical, nChunks uint64, payload []byte, helpers int) (err error) {
	var ring [2 * maxChunkHelpers]*fixity
	slots := ring[:1]
	slots[0] = k
	// Two slots a helper: a chunk to work on, and a finished one waiting
	// its turn at the hash. A check that keeps nothing has k's scratch for
	// chunks in flight: four of Put's.
	n := 2 * helpers
	if payload == nil {
		n = min(n, len(k.scratch)/chunkPayloadSize)
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
	)
	for done := uint64(0); ; done++ {
		for ; err == nil && walkErr == nil && walked < nChunks && walked-done < width; walked++ {
			s := slots[walked%width]
			if s.want, s.enc, list, walkErr = nextChunk(list); walkErr != nil {
				break
			}
			lo := walked * chunkPayloadSize
			room := min(logical-lo, chunkPayloadSize)
			if payload != nil {
				s.dst = payload[lo : lo+room : lo+room]
			} else {
				lo %= width * chunkPayloadSize
				s.dst = k.scratch[lo : lo+room : lo+room]
			}
			if work != nil {
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
		} else {
			s.checkChunk()
		}
		if s.err != nil {
			err = fmt.Errorf("chunk %d: %w", done, s.err)
			continue
		}
		k.whole.Write(s.dst)
	}
	switch {
	case err != nil:
		return err
	case walkErr != nil:
		return fmt.Errorf("chunk %d: %w", walked, walkErr)
	case len(list) != 0:
		return fmt.Errorf("chunked blob has %d trailing bytes", len(list))
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

// checkChunk decodes the chunk the fixity was bound to into its room, which
// it must fill exactly, and holds it to its recorded digest.
func (k *fixity) checkChunk() {
	if chunkStarted != nil {
		chunkStarted()
	}
	n, err := len(k.enc)-1, error(nil)
	switch {
	case n < 0:
		err = fmt.Errorf("empty stored piece")
	case k.enc[0] == blobRaw && n == len(k.dst):
		copy(k.dst, k.enc[1:])
	case k.enc[0] == blobDeflate:
		if n, err = k.inflate(k.dst, k.enc[1:]); err == errDstFull {
			err = fmt.Errorf("decodes past the %d bytes its place holds", len(k.dst))
		}
	case k.enc[0] != blobRaw:
		err = fmt.Errorf("unknown blob encoding 0x%02x", k.enc[0])
	}
	if err == nil && n != len(k.dst) {
		err = fmt.Errorf("decodes to %d bytes, its place holds %d", n, len(k.dst))
	}
	if err == nil {
		if got := sha256.Sum256(k.dst); got != [sha256.Size]byte(k.want) {
			err = fmt.Errorf("content hashes to %x, recorded %x", got, k.want)
		}
	}
	k.err = err
}
