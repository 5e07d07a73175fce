package queryserve

import (
	"sync"
	"sync/atomic"
)

// Entry is one cached representation: the response body and the strong
// ETag that validates it. Entries are immutable once cached — the body
// slice is shared between all readers and must not be written.
type Entry struct {
	ETag string
	Body []byte
}

// CacheStats is the cache's counter snapshot for the stage report.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Coalesced uint64 `json:"coalesced"`
	Entries   int    `json:"entries"`
	Evictions uint64 `json:"evictions"`
}

// Cache is a sharded LRU with singleflight request coalescing: one miss
// runs the fill while every concurrent request for the same key waits on
// that one result, so a stampede onto a cold key costs exactly one store
// read. Sharding keeps the hot-path lock narrow — a lookup takes one
// shard's mutex for a map probe and two list splices.
type Cache struct {
	shards    []cacheShard
	perShard  int
	hits      atomic.Uint64
	misses    atomic.Uint64
	coalesced atomic.Uint64
	evictions atomic.Uint64
}

const cacheShards = 16

// NewCache returns a cache bounded to capacity entries (rounded up to one
// per shard; capacity <= 0 selects a 4096-entry default).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = 4096
	}
	per := (capacity + cacheShards - 1) / cacheShards
	c := &Cache{shards: make([]cacheShard, cacheShards), perShard: per}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*cacheNode)
		c.shards[i].inflight = make(map[string]*flight)
	}
	return c
}

type cacheShard struct {
	mu       sync.Mutex
	entries  map[string]*cacheNode
	inflight map[string]*flight
	// head is the most recently used node, tail the eviction candidate.
	head, tail *cacheNode
}

type cacheNode struct {
	key        string
	val        Entry
	prev, next *cacheNode
}

// flight is one in-progress fill; waiters block on done.
type flight struct {
	done chan struct{}
	val  Entry
	err  error
}

// shard picks the key's shard by FNV-1a, inlined over the string so a
// lookup allocates neither a hasher nor a byte copy of the key.
func (c *Cache) shard(key string) *cacheShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return &c.shards[h%cacheShards]
}

// Get returns the cached entry for key, running fill on a miss. Every
// concurrent Get for the same missing key waits for the single fill in
// flight and shares its result (counted as coalesced). A failed fill
// caches nothing; the error fans out to all waiters and the next Get
// retries. The returned hit flag reports whether the entry came from
// cache (true for coalesced waiters too: they consumed no store read).
func (c *Cache) Get(key string, fill func() (Entry, error)) (Entry, bool, error) {
	s := c.shard(key)
	s.mu.Lock()
	if n, ok := s.entries[key]; ok {
		s.moveFront(n)
		v := n.val
		s.mu.Unlock()
		c.hits.Add(1)
		return v, true, nil
	}
	if f, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		c.coalesced.Add(1)
		<-f.done
		return f.val, true, f.err
	}
	f := &flight{done: make(chan struct{})}
	s.inflight[key] = f
	s.mu.Unlock()
	c.misses.Add(1)

	f.val, f.err = fill()

	s.mu.Lock()
	delete(s.inflight, key)
	if f.err == nil {
		s.insert(key, f.val, c.perShard, &c.evictions)
	}
	s.mu.Unlock()
	close(f.done)
	return f.val, false, f.err
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	st := CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Evictions: c.evictions.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += len(s.entries)
		s.mu.Unlock()
	}
	return st
}

// insert stores a filled entry, evicting from the cold end over capacity.
// Caller holds the shard lock.
func (s *cacheShard) insert(key string, val Entry, capacity int, evictions *atomic.Uint64) {
	if n, ok := s.entries[key]; ok { // lost a benign race: keep the newer value
		n.val = val
		s.moveFront(n)
		return
	}
	n := &cacheNode{key: key, val: val}
	s.entries[key] = n
	s.pushFront(n)
	for len(s.entries) > capacity && s.tail != nil {
		cold := s.tail
		s.unlink(cold)
		delete(s.entries, cold.key)
		evictions.Add(1)
	}
}

func (s *cacheShard) pushFront(n *cacheNode) {
	n.prev = nil
	n.next = s.head
	if s.head != nil {
		s.head.prev = n
	}
	s.head = n
	if s.tail == nil {
		s.tail = n
	}
}

func (s *cacheShard) unlink(n *cacheNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		s.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		s.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (s *cacheShard) moveFront(n *cacheNode) {
	if s.head == n {
		return
	}
	s.unlink(n)
	s.pushFront(n)
}
