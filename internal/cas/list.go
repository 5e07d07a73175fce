package cas

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// maxBatchBytes caps the stored bytes one PutMany of a ListBackend
// carries: the missing blobs of a list are encoded and written in batches
// of at most this much (a larger blob goes alone), so the stored forms held
// at once, and a cluster's request to one node, stay bounded.
const maxBatchBytes = 1 << 20

// PutMany stores a list of payloads, as Put stores each, and returns their
// digests in order. Each payload is hashed once. Over a ListBackend the
// distinct digests are probed in one HasMany, and only the blobs it does
// not hold are encoded and written, a batch of up to maxBatchBytes per
// PutMany of the backend; any other backend takes Put's per-blob path, in
// order.
func (s *Store) PutMany(payloads [][]byte) ([]string, error) {
	workers := runtime.GOMAXPROCS(0)
	digests := make([]string, len(payloads))
	for i, p := range payloads {
		digests[i] = Digest(p)
	}
	lb, ok := s.backend.(ListBackend)
	if !ok {
		for i, p := range payloads {
			if err := s.putDigested(digests[i], p, workers); err != nil {
				return nil, err
			}
		}
		return digests, nil
	}
	first := make(map[string]int, len(digests)) // each distinct digest's payload
	distinct := make([]string, 0, len(digests))
	for i, d := range digests {
		if _, dup := first[d]; !dup {
			first[d] = i
			distinct = append(distinct, d)
		}
	}
	var b batch
	for j, held := range lb.HasMany(distinct) {
		if held {
			continue
		}
		d := distinct[j]
		comp := encode(payloads[first[d]], workers)
		if len(b.digests) > 0 && b.size+len(comp) > maxBatchBytes {
			if err := b.write(lb); err != nil {
				return nil, err
			}
		}
		b.add(d, comp)
	}
	if err := b.write(lb); err != nil {
		return nil, err
	}
	return digests, nil
}

// batch is the encoded blobs PutMany holds for one write.
type batch struct {
	digests []string
	comps   [][]byte
	size    int
}

func (b *batch) add(digest string, comp []byte) {
	b.digests = append(b.digests, digest)
	b.comps = append(b.comps, comp)
	b.size += len(comp)
}

// write stores the batch, if it holds anything, and empties it.
func (b *batch) write(lb ListBackend) error {
	if len(b.digests) == 0 {
		return nil
	}
	errs := lb.PutMany(b.digests, b.comps)
	digests := b.digests
	*b = batch{}
	for j, err := range errs {
		if err != nil {
			return fmt.Errorf("cas: storing %s: %w", digests[j], err)
		}
	}
	return nil
}

// VerifyMany is Verify of a list of digests: logical[i] and errs[i] are
// what Verify(digests[i]) returns. Over a ListBackend they are its
// verdicts, and no blob is read here; otherwise the fixity kernel runs
// here, fanned over workers (minimum 1). Cancelling the context stops the
// fan-out: a digest left unchecked gets the context's error.
func (s *Store) VerifyMany(ctx context.Context, digests []string, workers int) ([]int64, []error) {
	if lb, ok := s.backend.(ListBackend); ok {
		return lb.VerifyMany(digests)
	}
	logical := make([]int64, len(digests))
	errs := make([]error, len(digests))
	workers = max(1, min(workers, len(digests)))
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				logical[i], errs[i] = s.Verify(digests[i])
			}
		}()
	}
	i := 0
feed:
	for ; i < len(digests) && ctx.Err() == nil; i++ {
		select {
		case next <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
	for ; i < len(digests); i++ {
		errs[i] = ctx.Err()
	}
	return logical, errs
}
