package cas

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// compressiblePayload is low-entropy data (deflate shrinks every chunk);
// incompressiblePayload is PRNG bytes (every chunk stores raw).
func compressiblePayload(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i / 97)
	}
	return out
}

func incompressiblePayload(n int) []byte {
	rng := rand.New(rand.NewSource(61))
	out := make([]byte, n)
	rng.Read(out)
	return out
}

func TestChunkedRoundtrip(t *testing.T) {
	cases := map[string][]byte{
		"compressible":    compressiblePayload(chunkThreshold + 3*chunkPayloadSize + 17),
		"incompressible":  incompressiblePayload(chunkThreshold + chunkPayloadSize/2),
		"exact-threshold": compressiblePayload(chunkThreshold),
		"exact-chunks":    compressiblePayload(chunkThreshold + 2*chunkPayloadSize),
	}
	for name, payload := range cases {
		t.Run(name, func(t *testing.T) {
			s := NewStore()
			d, err := s.Put(payload)
			if err != nil {
				t.Fatal(err)
			}
			comp, _, err := s.backend.GetBlob(d)
			if err != nil {
				t.Fatal(err)
			}
			if comp[0] != blobChunked {
				t.Fatalf("marker 0x%02x, want chunked", comp[0])
			}
			got, err := s.Get(d)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatal("roundtrip mismatch")
			}
			// The address is still the plain logical digest, so provenance
			// records and dedup are untouched by the stored form.
			if d != Digest(payload) {
				t.Fatalf("digest %s is not the logical content address", d)
			}
		})
	}
}

// TestChunkedThresholdBoundary pins the switchover: one byte below the
// threshold stores flat, at the threshold stores chunked.
func TestChunkedThresholdBoundary(t *testing.T) {
	s := NewStore()
	for _, tc := range []struct {
		n           int
		wantChunked bool
	}{
		{chunkThreshold - 1, false},
		{chunkThreshold, true},
	} {
		d, err := s.Put(compressiblePayload(tc.n))
		if err != nil {
			t.Fatal(err)
		}
		comp, _, _ := s.backend.GetBlob(d)
		if got := comp[0] == blobChunked; got != tc.wantChunked {
			t.Fatalf("size %d: chunked=%v, want %v", tc.n, got, tc.wantChunked)
		}
	}
}

// TestChunkedStoredBytesDeterministic is the archive's determinism rule
// applied to the new path: the stored form is a pure function of the
// payload, whatever the worker count.
func TestChunkedStoredBytesDeterministic(t *testing.T) {
	payload := incompressiblePayload(chunkThreshold + 5*chunkPayloadSize + 11)
	var want []byte
	for _, workers := range []int{1, 2, 4, 8, 64} {
		s := NewStore()
		d, err := s.PutWorkers(payload, workers)
		if err != nil {
			t.Fatal(err)
		}
		comp, _, _ := s.backend.GetBlob(d)
		if want == nil {
			want = append([]byte(nil), comp...)
			continue
		}
		if !bytes.Equal(comp, want) {
			t.Fatalf("stored bytes differ at %d workers", workers)
		}
	}
}

// TestChunkedCorruptionDetected flips one byte of the stored chunked blob
// and checks fixity catches it as a CorruptError, whichever field the flip
// lands in (header, chunk digest, or chunk body).
func TestChunkedCorruptionDetected(t *testing.T) {
	payload := compressiblePayload(chunkThreshold + chunkPayloadSize)
	s := NewStore()
	d, err := s.Put(payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Corrupt(d); err != nil {
		t.Fatal(err)
	}
	_, err = s.Get(d)
	if err == nil {
		t.Fatal("corrupt chunked blob served")
	}
	var ce *CorruptError
	if !errors.As(err, &ce) || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corruption surfaced as %v, want CorruptError", err)
	}
	if ce.Digest != d {
		t.Fatalf("CorruptError digest %s, want %s", ce.Digest, d)
	}
}

// TestChunkedTruncationDetected drops trailing bytes and expects a
// corruption error, not a short payload.
func TestChunkedTruncationDetected(t *testing.T) {
	payload := incompressiblePayload(chunkThreshold)
	blob := encodeChunked(payload, 2)
	d := Digest(payload)
	for _, cut := range []int{1, chunkPayloadSize / 2, len(blob) / 2} {
		if _, err := DecodeBlob(d, blob[:len(blob)-cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation by %d bytes surfaced as %v, want ErrCorrupt", cut, err)
		}
	}
	// Trailing garbage is rejected too: the stored form is canonical.
	if _, err := DecodeBlob(d, append(append([]byte(nil), blob...), 0xff)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing byte accepted: %v", err)
	}
}

// TestChunkedDedupAndVerify: the chunked form plays by all the store rules
// — duplicate puts are free, VerifyAll passes, and a Store over a
// DiskBackend reads it back.
func TestChunkedDedupAndVerify(t *testing.T) {
	payload := compressiblePayload(chunkThreshold + 7)
	s := NewStore()
	d1, err := s.Put(payload)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := s.PutWorkers(payload, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("digests differ: %s vs %s", d1, d2)
	}
	if n := len(s.backend.Digests()); n != 1 {
		t.Fatalf("duplicate stored: %d blobs", n)
	}
	if bad := failing(s); len(bad) != 0 {
		t.Fatalf("verify flagged %v", bad)
	}
	disk, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewStoreWith(disk)
	if _, err := s2.Put(payload); err != nil {
		t.Fatal(err)
	}
	got, err := s2.Get(d1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("disk roundtrip mismatch")
	}
}
