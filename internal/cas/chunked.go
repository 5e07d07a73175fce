package cas

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"
)

// Chunked stored form. Large payloads dominate archive ingest time because
// SHA-256 and deflate are both single-threaded over one []byte; chunking
// splits the blob at fixed byte offsets so hashing and compression fan out
// across cores while the stored bytes stay a pure function of the payload —
// no worker count, scheduling order, or machine shape leaks into the
// archive (the determinism rule every stored tier obeys).
//
// Layout after the marker byte:
//
//	uvarint logicalSize            // total payload bytes
//	uvarint chunkSize              // always chunkPayloadSize, 65,536
//	uvarint nChunks                // ceil(logicalSize / chunkSize)
//	nChunks × {
//	    32-byte chunk SHA-256      // over the chunk's logical bytes
//	    uvarint encLen
//	    encLen bytes               // the chunk, marker-framed like a small blob
//	}
//
// Every chunk but the last holds chunkSize logical bytes, and the last the
// remainder; the fixity kernel refuses any other chunk size or split.
//
// The blob's address is unchanged: still the SHA-256 of the whole logical
// payload, so deduplication, the wire protocol, and every existing digest
// in provenance records are untouched. The per-chunk digest list is a
// bonus fixity feature — a corrupt chunk is localized without rehashing
// the rest of the blob.
const (
	blobChunked byte = 2

	// chunkPayloadSize is the fixed split width. 64 KiB keeps per-chunk
	// deflate windows effective (the format's window is 32 KiB) while
	// giving a 1 MiB blob 16-way hash parallelism.
	chunkPayloadSize = 64 << 10

	// chunkThreshold is the payload size at which Put switches to the
	// chunked form: below it the fan-out overhead exceeds the win.
	chunkThreshold = 256 << 10
)

// PutWorkers stores a payload like Put, hashing and compressing large
// payloads across the given number of workers (minimum 1). Payloads under
// the chunking threshold take the ordinary single-pass path. The stored
// bytes are identical for every worker count.
func (s *Store) PutWorkers(data []byte, workers int) (string, error) {
	d := Digest(data)
	return d, s.putDigested(d, data, workers)
}

// putDigested stores a payload whose digest the caller computed, unless
// the backend already has it.
func (s *Store) putDigested(d string, data []byte, workers int) error {
	if s.backend.HasBlob(d) {
		return nil
	}
	if err := s.backend.PutBlob(d, encode(data, workers), int64(len(data))); err != nil {
		return fmt.Errorf("cas: storing %s: %w", d, err)
	}
	return nil
}

// encodeChunked produces the chunked stored form, fanning the per-chunk
// SHA-256 + deflate work across workers. Chunk boundaries are fixed byte
// offsets and assembly is in index order, so the output is deterministic.
//
// Each worker writes its chunks straight into one buffer, a slot per chunk
// wide enough for any chunk's record: the digest, three bytes of scratch
// for the stored length, then the stored form. Assembly then moves each
// record down into place, its length now a uvarint.
func encodeChunked(data []byte, workers int) []byte {
	const (
		hdr  = 1 + 3*binary.MaxVarintLen64
		body = sha256.Size + 3 // where a slot's stored form starts
		slot = body + 1 + chunkPayloadSize + deflateSlack
	)
	n := len(data)
	nChunks := (n + chunkPayloadSize - 1) / chunkPayloadSize
	workers = max(1, min(workers, nChunks))
	out := make([]byte, hdr+nChunks*slot)

	var wg sync.WaitGroup
	next := make(chan int)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			e := deflaterPool.Get().(*deflater)
			defer deflaterPool.Put(e)
			for i := range next {
				lo := i * chunkPayloadSize
				chunk := data[lo:min(lo+chunkPayloadSize, n)]
				s := out[hdr+i*slot : hdr+(i+1)*slot]
				sum := sha256.Sum256(chunk)
				copy(s, sum[:])
				m := e.storedForm(s[body:], chunk)
				s[body-3], s[body-2], s[body-1] = byte(m), byte(m>>8), byte(m>>16)
			}
		}()
	}
	for i := 0; i < nChunks; i++ {
		next <- i
	}
	close(next)
	wg.Wait()

	out[0] = blobChunked
	pos := 1
	pos += binary.PutUvarint(out[pos:], uint64(n))
	pos += binary.PutUvarint(out[pos:], uint64(chunkPayloadSize))
	pos += binary.PutUvarint(out[pos:], uint64(nChunks))
	for i := 0; i < nChunks; i++ {
		s := hdr + i*slot
		m := int(out[s+body-3]) | int(out[s+body-2])<<8 | int(out[s+body-1])<<16
		pos += copy(out[pos:], out[s:s+sha256.Size])
		pos += binary.PutUvarint(out[pos:], uint64(m))
		pos += copy(out[pos:], out[s+body:s+body+m])
	}
	return out[:pos]
}
