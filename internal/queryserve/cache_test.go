package queryserve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// cached reports whether the key holds an entry, without filling or
// promoting it.
func cached(c *Cache, key string) bool {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[key]
	return ok
}

func TestCacheHitMissLRU(t *testing.T) {
	c := NewCache(cacheShards) // one entry per shard
	fills := 0
	get := func(key string) (Entry, bool) {
		ent, hit, err := c.Get(key, func() (Entry, error) {
			fills++
			return Entry{ETag: `"` + key + `"`, Body: []byte(key)}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return ent, hit
	}
	if _, hit := get("a"); hit {
		t.Fatal("cold get reported a hit")
	}
	if ent, hit := get("a"); !hit || string(ent.Body) != "a" {
		t.Fatalf("warm get: hit=%v body=%q", hit, ent.Body)
	}
	if fills != 1 {
		t.Fatalf("fills: %d", fills)
	}
	// Overflow one shard: keys colliding into the same shard evict LRU.
	var shardKeys []string
	target := c.shard("a")
	for i := 0; len(shardKeys) < 2; i++ {
		k := fmt.Sprintf("k%d", i)
		if c.shard(k) == target {
			shardKeys = append(shardKeys, k)
		}
	}
	get(shardKeys[0])
	get(shardKeys[1]) // capacity 1 per shard: "a" and shardKeys[0] evicted
	if cached(c, "a") {
		t.Fatal("LRU entry survived eviction")
	}
	st := c.Stats()
	if st.Evictions == 0 || st.Hits != 1 || st.Misses != 3 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestCacheFillErrorNotCached(t *testing.T) {
	c := NewCache(8)
	boom := errors.New("store down")
	if _, _, err := c.Get("k", func() (Entry, error) { return Entry{}, boom }); !errors.Is(err, boom) {
		t.Fatalf("err: %v", err)
	}
	if cached(c, "k") {
		t.Fatal("failed fill got cached")
	}
	// Next get retries the fill.
	ent, _, err := c.Get("k", func() (Entry, error) { return Entry{Body: []byte("ok")}, nil })
	if err != nil || string(ent.Body) != "ok" {
		t.Fatalf("retry: %v %q", err, ent.Body)
	}
}

// TestCacheStampede is the singleflight proof at the cache layer: N
// concurrent misses on one key run exactly one fill; everyone else
// coalesces onto it.
func TestCacheStampede(t *testing.T) {
	c := NewCache(64)
	const n = 32
	var fills atomic.Int32
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ent, _, err := c.Get("hot", func() (Entry, error) {
				fills.Add(1)
				<-release // hold the fill open so every goroutine piles up
				return Entry{ETag: `"h"`, Body: []byte("hot body")}, nil
			})
			if err != nil {
				t.Error(err)
			}
			if string(ent.Body) != "hot body" {
				t.Errorf("body %q", ent.Body)
			}
		}()
	}
	// Let the herd arrive, then release the single fill.
	for c.Stats().Coalesced < n-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if got := fills.Load(); got != 1 {
		t.Fatalf("stampede ran %d fills, want 1", got)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Coalesced != n-1 {
		t.Fatalf("stats: %+v", st)
	}
}
