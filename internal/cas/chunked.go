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
	comp, pooled, err := encode(data, workers)
	if err != nil {
		return err
	}
	err = s.backend.PutBlob(d, comp, int64(len(data)))
	release(pooled)
	if err != nil {
		return fmt.Errorf("cas: storing %s: %w", d, err)
	}
	return nil
}

// encodeChunked produces the chunked stored form, fanning the per-chunk
// SHA-256 + deflate work across workers. Chunk boundaries are fixed byte
// offsets and assembly is in index order, so the output is deterministic.
func encodeChunked(data []byte, workers int) ([]byte, error) {
	n := len(data)
	nChunks := (n + chunkPayloadSize - 1) / chunkPayloadSize
	if workers < 1 {
		workers = 1
	}
	if workers > nChunks {
		workers = nChunks
	}

	type encChunk struct {
		sum  [sha256.Size]byte
		blob []byte
	}
	encs := make([]encChunk, nChunks)

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		next     = make(chan int)
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				lo := i * chunkPayloadSize
				hi := min(lo+chunkPayloadSize, n)
				chunk := data[lo:hi]
				encs[i].sum = sha256.Sum256(chunk)
				buf, err := encodeBlob(chunk)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					continue
				}
				encs[i].blob = append([]byte(nil), buf.Bytes()...)
				blobBufPool.Put(buf)
			}
		}()
	}
	for i := 0; i < nChunks; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	size := 1 + 3*binary.MaxVarintLen64
	for i := range encs {
		size += sha256.Size + binary.MaxVarintLen64 + len(encs[i].blob)
	}
	out := make([]byte, 0, size)
	out = append(out, blobChunked)
	out = binary.AppendUvarint(out, uint64(n))
	out = binary.AppendUvarint(out, uint64(chunkPayloadSize))
	out = binary.AppendUvarint(out, uint64(nChunks))
	for i := range encs {
		out = append(out, encs[i].sum[:]...)
		out = binary.AppendUvarint(out, uint64(len(encs[i].blob)))
		out = append(out, encs[i].blob...)
	}
	return out, nil
}
