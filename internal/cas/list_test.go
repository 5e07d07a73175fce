package cas

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"daspos/internal/xrand"
)

// listRecorder is a ListBackend over a ShardedBackend that records the
// probes and writes a Store sends it.
type listRecorder struct {
	*ShardedBackend
	probes [][]string
	writes [][]string
	sizes  []int
}

func (r *listRecorder) HasMany(digests []string) []bool {
	r.probes = append(r.probes, slices.Clone(digests))
	held := make([]bool, len(digests))
	for i, d := range digests {
		held[i] = r.HasBlob(d)
	}
	return held
}

func (r *listRecorder) PutMany(digests []string, comps [][]byte) []error {
	r.writes = append(r.writes, slices.Clone(digests))
	size := 0
	for i, d := range digests {
		size += len(comps[i])
		if err := r.PutBlob(d, comps[i], 0); err != nil {
			panic(err)
		}
	}
	r.sizes = append(r.sizes, size)
	return make([]error, len(digests))
}

func (r *listRecorder) VerifyMany(digests []string) ([]int64, []error) {
	logical, errs := make([]int64, len(digests)), make([]error, len(digests))
	for i, d := range digests {
		errs[i] = ErrNotFound // a verdict the Store must hand on as it is
		if r.HasBlob(d) {
			logical[i], errs[i] = int64(i), nil
		}
	}
	return logical, errs
}

// TestPutManyProbesOnceAndBatchesUnderTheCap: over a ListBackend, PutMany
// returns every payload's digest in order, probes the distinct digests in
// one call, writes only the blobs the backend lacks, and writes them in as
// few batches as fit under maxBatchBytes, a blob larger than the cap alone.
// Each stored blob is the stored form Put writes.
func TestPutManyProbesOnceAndBatchesUnderTheCap(t *testing.T) {
	rng := xrand.New(11)
	noise := func(n int) []byte { // incompressible: stored at about its size
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Uint64())
		}
		return b
	}
	third := noise(maxBatchBytes/3 + 1)
	payloads := [][]byte{
		[]byte("held already"),
		noise(maxBatchBytes/3 + 1), // three of these do not fit one batch
		third,
		[]byte("small"),
		third, // a duplicate: stored once
		noise(maxBatchBytes/3 + 1),
		noise(maxBatchBytes + 1), // larger than the cap: alone
		[]byte("last"),
	}
	r := &listRecorder{ShardedBackend: NewShardedBackend(1)}
	s := NewStoreWith(r)
	if _, err := NewStoreWith(r.ShardedBackend).Put(payloads[0]); err != nil {
		t.Fatal(err)
	}
	digests, err := s.PutMany(payloads)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range payloads {
		if digests[i] != Digest(p) {
			t.Fatalf("digest %d is not the payload's", i)
		}
		if got, err := s.Get(digests[i]); err != nil || !bytes.Equal(got, p) {
			t.Fatalf("payload %d does not read back: %v", i, err)
		}
	}
	if len(r.probes) != 1 || len(r.probes[0]) != 7 {
		t.Fatalf("probes %d, of %v digests; want one of the 7 distinct", len(r.probes), r.probes)
	}
	want := [][]string{
		{digests[1], digests[2], digests[3]},
		{digests[5]},
		{digests[6]},
		{digests[7]},
	}
	if !slices.EqualFunc(r.writes, want, slices.Equal[[]string]) {
		t.Fatalf("writes %d batches of %v, want %v", len(r.writes), r.writes, want)
	}
	for k, size := range r.sizes {
		if size > maxBatchBytes && len(r.writes[k]) > 1 {
			t.Fatalf("batch %d carries %d bytes in %d blobs, over the %d cap", k, size, len(r.writes[k]), maxBatchBytes)
		}
	}
	for _, d := range digests {
		comp, _, err := r.GetBlob(d)
		if err != nil {
			t.Fatal(err)
		}
		other := NewShardedBackend(1)
		if _, err := NewStoreWith(other).Put(payloads[slices.Index(digests, d)]); err != nil {
			t.Fatal(err)
		}
		if put, _, _ := other.GetBlob(d); !bytes.Equal(comp, put) {
			t.Fatalf("%s: PutMany stored another form than Put", d[:12])
		}
	}

	// VerifyMany takes the backend's verdicts as they are.
	logical, errs := s.VerifyMany(context.Background(), []string{digests[3], Digest([]byte("absent"))}, 4)
	if logical[0] != 0 || errs[0] != nil || !errors.Is(errs[1], ErrNotFound) {
		t.Fatalf("VerifyMany over a ListBackend: %v %v, want the backend's verdicts", logical, errs)
	}
}

// TestVerifyManyRunsTheKernelLocally: over a backend without the list
// capability, VerifyMany checks each digest here, at any worker count, and
// a cancelled context leaves every digest unchecked with its error.
func TestVerifyManyRunsTheKernelLocally(t *testing.T) {
	s := NewStore()
	var digests []string
	for i := 0; i < 6; i++ {
		d, err := s.Put(bytes.Repeat([]byte(fmt.Sprintf("blob %d ", i)), 50*i+1))
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, d)
	}
	if err := s.Corrupt(digests[2]); err != nil {
		t.Fatal(err)
	}
	digests = append(digests, Digest([]byte("absent")))
	for _, workers := range []int{0, 1, 3, 16} {
		logical, errs := s.VerifyMany(context.Background(), digests, workers)
		for i, d := range digests {
			wantLogical, wantErr := s.Verify(d)
			if logical[i] != wantLogical || (errs[i] == nil) != (wantErr == nil) {
				t.Fatalf("%d workers, digest %d: %d, %v; Verify says %d, %v", workers, i, logical[i], errs[i], wantLogical, wantErr)
			}
		}
		if !errors.Is(errs[2], ErrCorrupt) || !errors.Is(errs[6], ErrNotFound) {
			t.Fatalf("%d workers: %v, %v; want corrupt and not found", workers, errs[2], errs[6])
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, errs := s.VerifyMany(ctx, digests, 2)
	for _, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled VerifyMany: %v, want context.Canceled", err)
		}
	}
}
