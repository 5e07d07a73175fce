package recast

import (
	"fmt"
	"strconv"
	"strings"

	"daspos/internal/journal"
)

// The request ledger's persistence: requests.log, a journal (package
// journal) of request snapshots, one record per mutation — submit,
// approve, reject, attempt, terminal transition. Replay is last-write-wins
// per request ID. Subscriptions are code-backed (the experiment
// re-registers its preserved analyses at startup), so only requests
// serialize. A Service that no Server opened a journal for keeps its
// ledger in memory only — the in-process demo, scan and back-end tests.

// openJournal recovers the request ledger from path into an empty service
// and journals every later mutation there.
func (s *Service) openJournal(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.requests) > 0 {
		return fmt.Errorf("recast: service already holds %d requests", len(s.requests))
	}
	j, err := journal.Open(path, s.replayLocked)
	if err != nil {
		return fmt.Errorf("recast: request ledger: %w", err)
	}
	s.journal, s.journalErr = j, nil
	return nil
}

// replayLocked installs one replayed snapshot, superseding any earlier one
// of the same request, and keeps the ID sequence ahead of every ID seen.
func (s *Service) replayLocked(req Request) error {
	if req.ID == "" {
		return fmt.Errorf("recast: request without ID")
	}
	switch req.Status {
	case StatusSubmitted, StatusApproved, StatusRejected, StatusDone, StatusFailed:
	default:
		return fmt.Errorf("recast: request %s has unknown status %q", req.ID, req.Status)
	}
	s.requests[req.ID] = &req
	if n, ok := parseRequestID(req.ID); ok && n > s.nextID {
		s.nextID = n
	}
	return nil
}

// closeJournal releases requests.log; mutations after it fail rather than
// go unrecorded.
func (s *Service) closeJournal() error {
	s.mu.Lock()
	j := s.journal
	s.mu.Unlock()
	if j == nil {
		return nil
	}
	return j.Close()
}

// commitLocked journals a request's next snapshot and, once it is durable,
// installs it — the ledger never acknowledges what is not on disk. Callers
// hold s.mu and pass a snapshot nothing else references.
func (s *Service) commitLocked(next *Request) error {
	if s.journal != nil {
		if err := s.journal.Append(next); err != nil {
			if s.journalErr == nil {
				s.journalErr = err
			}
			return fmt.Errorf("%w: %w", ErrJournal, err)
		}
	}
	s.requests[next.ID] = next
	return nil
}

// JournalErr returns the first request-journal write failure, if any —
// what turns ServerStatus.JournalOK false.
func (s *Service) JournalErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.journalErr
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
