package cas

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"daspos/internal/xrand"
)

// shardedPayload builds a distinct compressible payload for index i.
func shardedPayload(i int) []byte {
	data := bytes.Repeat([]byte(fmt.Sprintf("tier-bank-%04d ", i)), 40)
	return data
}

func TestShardedBackendRoundTrip(t *testing.T) {
	s := NewStoreWith(NewShardedBackend(8))
	var digests []string
	for i := 0; i < 64; i++ {
		d, err := s.Put(shardedPayload(i))
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, d)
	}
	for i, d := range digests {
		got, err := s.Get(d)
		if err != nil {
			t.Fatalf("blob %d: %v", i, err)
		}
		if !bytes.Equal(got, shardedPayload(i)) {
			t.Fatalf("blob %d: content mismatch", i)
		}
	}
	if n := len(s.backend.Digests()); n != 64 {
		t.Fatalf("want 64 digests, got %d", n)
	}
}

func TestShardedDigestsSorted(t *testing.T) {
	s := NewStoreWith(NewShardedBackend(16))
	for i := 0; i < 200; i++ {
		if _, err := s.Put(shardedPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	ds := s.backend.Digests()
	if !sort.StringsAreSorted(ds) {
		t.Fatal("sharded Digests() not sorted")
	}
	if len(ds) != 200 {
		t.Fatalf("want 200 digests, got %d", len(ds))
	}
}

func TestShardedRoundsUpToPowerOfTwo(t *testing.T) {
	if got := len(NewShardedBackend(5).shards); got != 8 {
		t.Fatalf("want 8 shards for n=5, got %d", got)
	}
	if got := len(NewShardedBackend(0).shards); got != defaultShards() {
		t.Fatalf("want defaultShards()=%d for n=0, got %d", defaultShards(), got)
	}
	if got := len(NewShardedBackend(1).shards); got != 1 {
		t.Fatalf("want one lock for n=1, got %d", got)
	}
}

func TestShardedCorruptionDetected(t *testing.T) {
	s := NewStoreWith(NewShardedBackend(4))
	var digests []string
	for i := 0; i < 32; i++ {
		d, err := s.Put(shardedPayload(i))
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, d)
	}
	victim := digests[7]
	if err := s.Corrupt(victim); err != nil {
		t.Fatal(err)
	}
	if bad := failing(s); len(bad) != 1 || bad[0] != victim {
		t.Fatalf("failing = %v, want [%s]", bad, victim)
	}
}

func TestShardedConcurrentPut(t *testing.T) {
	s := NewStoreWith(NewShardedBackend(0))
	const workers, per = 8, 50
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := s.Put(shardedPayload(w*per + i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := len(s.backend.Digests()); n != workers*per {
		t.Fatalf("want %d digests, got %d", workers*per, n)
	}
	if bad := failing(s); len(bad) != 0 {
		t.Fatalf("unexpected fixity failures: %v", bad)
	}
}

func TestIncompressibleStoredRaw(t *testing.T) {
	rng := xrand.New(42)
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(rng.Intn(256))
	}
	s := NewStore()
	d, err := s.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	comp, _, err := s.backend.GetBlob(d)
	if err != nil {
		t.Fatal(err)
	}
	if comp[0] != blobRaw {
		t.Fatalf("high-entropy blob stored with marker 0x%02x, want raw", comp[0])
	}
	if len(comp) != len(data)+1 {
		t.Fatalf("raw blob stored as %d bytes, want %d", len(comp), len(data)+1)
	}
	got, err := s.Get(d)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("raw round trip mismatch")
	}
}

func TestSmallBlobSkipsCompression(t *testing.T) {
	s := NewStore()
	data := bytes.Repeat([]byte("a"), minCompressSize-1)
	d, err := s.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	comp, _, err := s.backend.GetBlob(d)
	if err != nil {
		t.Fatal(err)
	}
	if comp[0] != blobRaw {
		t.Fatalf("sub-threshold blob stored with marker 0x%02x, want raw", comp[0])
	}
}

func TestRawBlobCorruptionDetected(t *testing.T) {
	rng := xrand.New(7)
	data := make([]byte, 1024)
	for i := range data {
		data[i] = byte(rng.Intn(256))
	}
	s := NewStore()
	d, err := s.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Corrupt(d); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(d); err == nil {
		t.Fatal("corrupt raw blob read back cleanly")
	}
}

// BenchmarkCASPutParallel measures ingest throughput with 1/4/8 writer
// goroutines over a single-lock backend vs the striped default.
// Each goroutine writes distinct payloads so every Put takes the full
// digest+compress+store path.
func BenchmarkCASPutParallel(b *testing.B) {
	const blobSize = 16 << 10
	backends := []struct {
		name string
		mk   func() Backend
	}{
		{"one-lock", func() Backend { return NewShardedBackend(1) }},
		{"sharded", func() Backend { return NewShardedBackend(0) }},
	}
	for _, be := range backends {
		for _, g := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("%s/goroutines=%d", be.name, g), func(b *testing.B) {
				s := NewStoreWith(be.mk())
				base := bytes.Repeat([]byte("daspos tier payload "), blobSize/20+1)[:blobSize]
				b.SetBytes(blobSize)
				b.ReportAllocs()
				b.ResetTimer()
				var next atomic.Int64
				var wg sync.WaitGroup
				wg.Add(g)
				for w := 0; w < g; w++ {
					go func() {
						defer wg.Done()
						buf := append([]byte(nil), base...)
						for {
							i := next.Add(1) - 1
							if i >= int64(b.N) {
								return
							}
							binary.LittleEndian.PutUint64(buf, uint64(i))
							if _, err := s.Put(buf); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
			})
		}
	}
}
