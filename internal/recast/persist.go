package recast

import (
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"daspos/internal/journal"
)

// The request ledger's persistence: requests.log, a journal (package
// journal) of request snapshots, one record per mutation — submit,
// approve, reject, attempt, terminal transition. It is the only durable
// state of the package: what the scheduler owes is read off the same
// records. Replay is last-write-wins per request ID. Subscriptions are
// code-backed (the experiment re-registers its preserved analyses at
// startup), so only requests serialize.

// record is one line of requests.log and the ledger's unit in memory: the
// request as its requester sees it, wrapped with what the scheduler must
// find again after a crash. The wrapper adds one optional member, so every
// line an earlier commit wrote is still a valid line, and nothing of it
// reaches a client: the HTTP bodies marshal the Request alone.
type record struct {
	Request
	Queue *queueState `json:"queue,omitempty"`
}

// queueState is the "queue" member of a record. A snapshot carries the
// fields known by then and every later snapshot of the request keeps them.
type queueState struct {
	// Seq is the request's place in its tenant's FIFO, journaled with the
	// approved snapshot: approval and enqueue are one append. 0 means the
	// request was never queued.
	Seq uint64 `json:"seq,omitempty"`
	// DeadlineUnixMs is the requester's absolute deadline (wall clock,
	// milliseconds since epoch), journaled at submission so that neither a
	// crash nor a wait for manual approval loses it. 0 means none.
	DeadlineUnixMs int64 `json:"deadline_unix_ms,omitempty"`
	// DedupKey is written exactly once, on the done snapshot of a back-end
	// run, by the chain that ran it: the key under which the archived
	// result answers identical requests.
	DedupKey string `json:"dedup_key,omitempty"`
}

// edit returns a copy of q to change: installed records share their queue
// state and never mutate it.
func (q *queueState) edit() *queueState {
	if q == nil {
		return &queueState{}
	}
	cp := *q
	return &cp
}

// openJournal recovers the request ledger from dir into a service no
// Server has opened yet, and journals every later mutation there.
func (s *Service) openJournal(dir string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal != nil {
		return fmt.Errorf("recast: service already belongs to a server")
	}
	j, err := journal.Open(filepath.Join(dir, "requests.log"), s.replayLocked)
	if err != nil {
		return fmt.Errorf("recast: request ledger: %w", err)
	}
	if err := s.importParentQueueLocked(filepath.Join(dir, "queue", "queue.log")); err != nil {
		j.Close()
		return err
	}
	s.journal, s.journalErr = j, nil
	s.chainDigest = s.backend.ConfigDigest()
	return nil
}

// replayLocked installs one replayed snapshot, superseding any earlier one
// of the same request, and keeps the ID sequence ahead of every ID seen.
func (s *Service) replayLocked(rec record) error {
	if rec.ID == "" {
		return fmt.Errorf("recast: request without ID")
	}
	switch rec.Status {
	case StatusSubmitted, StatusApproved, StatusRejected, StatusDone, StatusFailed:
	default:
		return fmt.Errorf("recast: request %s has unknown status %q", rec.ID, rec.Status)
	}
	s.installLocked(&rec)
	if n, ok := parseRequestID(rec.ID); ok && n > s.nextID {
		s.nextID = n
	}
	return nil
}

// importParentQueueLocked reads the queue journal that commits before the
// ledger carried scheduler state kept beside it, if the directory has one,
// and lends its sequence numbers, deadlines and dedup keys to the requests
// whose ledger records carry no queue state yet — those the earlier commit
// accepted and this one has not written since.
// The file is read on every open and never written, renamed or removed;
// which entries were claimed or completed is not read at all, the ledger
// says what each request became.
func (s *Service) importParentQueueLocked(path string) error {
	lent := make(map[string]*queueState)
	err := journal.Replay(path, func(rec struct {
		Op       string      `json:"op"`
		ID       string      `json:"id"`
		Entry    *queueState `json:"entry"`
		DedupKey string      `json:"dedup_key"`
	}) error {
		switch {
		case rec.Op == "enqueue" && rec.Entry != nil:
			lent[rec.ID] = rec.Entry
		case rec.Op == "rekey" && lent[rec.ID] != nil:
			lent[rec.ID].DedupKey = rec.DedupKey
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("recast: parent queue journal: %w", err)
	}
	for id, q := range lent {
		if rec, ok := s.requests[id]; ok && rec.Queue == nil {
			next := *rec
			next.Queue = q
			s.installLocked(&next)
		}
	}
	return nil
}

// closeJournal releases requests.log; mutations after it fail rather than
// go unrecorded.
func (s *Service) closeJournal() error {
	s.mu.Lock()
	j := s.journal
	s.mu.Unlock()
	return j.Close()
}

// commitLocked journals a request's next snapshot and, once it is durable,
// installs it — the ledger never acknowledges what is not on disk. Callers
// hold s.mu and pass a snapshot nothing else references.
func (s *Service) commitLocked(next *record) error {
	if err := s.journal.Append(next); err != nil {
		if s.journalErr == nil {
			s.journalErr = err
		}
		return fmt.Errorf("%w: %w", ErrJournal, err)
	}
	s.installLocked(next)
	return nil
}

// installLocked makes rec the request's current snapshot — the one fold
// replay and live commits share. A back-end run that finished under a
// journaled dedup key joins the memoization index (the earliest ID wins, so
// the index is the same across recoveries); a request answered from the
// archive indexes nothing.
func (s *Service) installLocked(rec *record) {
	s.requests[rec.ID] = rec
	if rec.Status != StatusDone || rec.DedupOf != "" || rec.Queue == nil || rec.Queue.DedupKey == "" {
		return
	}
	if prev, ok := s.archive[rec.Queue.DedupKey]; !ok || rec.ID < prev {
		s.archive[rec.Queue.DedupKey] = rec.ID
	}
}

// records returns the current snapshot of every request, sorted by ID.
// Installed snapshots are immutable, so the pointers are safe to read.
func (s *Service) records() []*record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*record, 0, len(s.requests))
	for _, r := range s.requests {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// parseRequestID extracts the sequence number from "req-NNNNNN".
func parseRequestID(id string) (int, bool) {
	rest, ok := strings.CutPrefix(id, "req-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil {
		return 0, false
	}
	return n, true
}
