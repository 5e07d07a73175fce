// Seeded violations for the lockcheck analyzer: blocking operations
// under a held mutex, a lock leaked on an early return, and a write
// Lock in a read-only accessor — next to deferred-unlock, select-with-
// default, and RLock accessor shapes that must stay silent.
package queryserve

import (
	"context"
	"net/http"
	"os"
	"sync"
	"time"
)

type store struct {
	mu      sync.Mutex
	rw      sync.RWMutex
	journal *os.File
	entries map[string]string
	ready   chan struct{}
	out     chan string
}

func (s *store) sleepUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	time.Sleep(time.Millisecond) // want `time.Sleep while s\.mu is held`
}

func (s *store) fsyncUnderLock(line []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.journal.Write(line); err != nil { // want `file Write while s\.mu is held`
		return err
	}
	return s.journal.Sync() // want `fsync while s\.mu is held`
}

func (s *store) fileOpsUnderLock(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := os.ReadFile(path) // want `file I/O \(os\.ReadFile\) while s\.mu is held`
	return err
}

func (s *store) httpUnderLock(c *http.Client, req *http.Request) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := c.Do(req) // want `HTTP request \(Client\.Do\) while s\.mu is held`
	return err
}

func (s *store) chanOpsUnderLock(v string) {
	s.mu.Lock()
	s.out <- v // want `channel send while s\.mu is held`
	<-s.ready  // want `channel receive while s\.mu is held`
	s.mu.Unlock()
}

type backend interface {
	Fetch(ctx context.Context, key string) (string, error)
}

func (s *store) backendUnderLock(ctx context.Context, b backend, key string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return b.Fetch(ctx, key) // want `context-taking call Fetch`
}

// Annotated blocking section: the write-ahead discipline requires the
// journal line durable before the in-memory state mutates.
func (s *store) journalOK(line []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.journal.Write(line); err != nil { //daspos:lock-ok — write-ahead: the line must be durable before state mutates
		return err
	}
	return nil
}

// Select with a default never blocks: the pulse idiom is legal under a
// lock.
func (s *store) signalOK() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case s.ready <- struct{}{}:
	default:
	}
}

func (s *store) leakyEarlyReturn(key string) string {
	s.mu.Lock() // want `s\.mu is not released on every return path`
	if v, ok := s.entries[key]; ok {
		return v
	}
	s.mu.Unlock()
	return ""
}

func (s *store) balancedReturnsOK(key string) string {
	s.mu.Lock()
	if v, ok := s.entries[key]; ok {
		s.mu.Unlock()
		return v
	}
	s.mu.Unlock()
	return ""
}

func (s *store) writeLockAccessor(key string) string {
	s.rw.Lock() // want `write Lock in a read-only accessor`
	defer s.rw.Unlock()
	return s.entries[key]
}

func (s *store) readLockAccessorOK(key string) string {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return s.entries[key]
}

func (s *store) writeLockMutatorOK(key, v string) {
	s.rw.Lock()
	defer s.rw.Unlock()
	s.entries[key] = v
}

// Mutation through a local alias of receiver state (the map-of-pointers
// idiom) is still mutation — the write Lock is correct and must stay
// silent.
type record struct{ hits int }

type indexed struct {
	rw   sync.RWMutex
	recs map[string]*record
}

func (x *indexed) aliasMutatorOK(key string) {
	x.rw.Lock()
	defer x.rw.Unlock()
	r, ok := x.recs[key]
	if !ok {
		return
	}
	r.hits++
}

// A plain Mutex has no read mode, so a read-only section under it is not
// a finding.
func (s *store) plainMutexAccessorOK(key string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entries[key]
}

// Unlock wrapped in a deferred cleanup literal still covers every exit.
func (s *store) deferredLitUnlockOK(key string) string {
	s.mu.Lock()
	defer func() {
		s.mu.Unlock()
	}()
	return s.entries[key]
}

// The closure body runs under its own (unknown) lock state — blocking
// there is not blocking here.
func (s *store) closureOK() func() {
	s.mu.Lock()
	defer s.mu.Unlock()
	return func() {
		time.Sleep(time.Millisecond)
	}
}

// A range body is walked statement by statement: an fsync between the
// body's own unlock and relock runs with nothing held.
func (s *store) unlockInRangeBodyOK(files []*os.File) {
	s.mu.Lock()
	for _, f := range files {
		s.mu.Unlock()
		f.Sync()
		s.mu.Lock()
	}
	s.mu.Unlock()
}

// An fsync in a range body under a lock held across the loop is a finding.
func (s *store) fsyncInRangeBodyUnderLock(files []*os.File) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, f := range files {
		f.Sync() // want `fsync while s\.mu is held`
	}
}

// After the unlock, blocking is fine.
func (s *store) unlockThenBlockOK(line []byte) error {
	s.mu.Lock()
	s.entries["k"] = "v"
	s.mu.Unlock()
	_, err := s.journal.Write(line)
	return err
}
