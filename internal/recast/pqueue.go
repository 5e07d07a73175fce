package recast

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"sync"

	"daspos/internal/journal"
)

// PQueue is the crash-safe multi-tenant work queue behind the RECAST
// front door. Accepted work lives in a journal (package journal): every
// mutation (enqueue, claim, complete, rekey) is one durable record, folded
// into memory only after it is on disk, and claimed-but-unfinished entries
// are handed back to the queue on recovery — an accepted request is never
// lost to a process death.
//
// Scheduling is weighted fair queuing over tenants: each tenant carries
// a virtual time that advances by 1/weight per claim, and Claim always
// serves the eligible tenant with the smallest virtual time (ties by
// name). A tenant that floods the queue only queues behind itself;
// everyone else's share is untouched.
type PQueue struct {
	ctx     context.Context
	journal *journal.Journal

	mu      sync.Mutex
	entries map[string]*QueueEntry
	// pending holds each tenant's queued entry IDs in enqueue order.
	pending map[string][]string
	vtime   map[string]float64
	weights map[string]float64
	seq     uint64

	// ready pulses when work becomes claimable; workers select on it.
	ready chan struct{}
}

// Entry states. Queued and claimed are live; the rest are terminal.
const (
	EntryQueued  = "queued"
	EntryClaimed = "claimed"
	EntryDone    = "done"
	EntryFailed  = "failed"
	EntryExpired = "expired"
)

// QueueEntry is one unit of accepted work. Everything needed to resume
// after a crash travels in the entry — the journal is the only state.
type QueueEntry struct {
	// ID is the request ID; enqueue is idempotent per ID.
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	// DedupKey memoizes the computation; empty disables dedup.
	DedupKey string `json:"dedup_key,omitempty"`
	// DeadlineUnixMs is the request's absolute deadline (wall clock,
	// milliseconds since epoch); 0 means none. Stored absolute so a
	// post-crash worker can still tell the request is dead.
	DeadlineUnixMs int64 `json:"deadline_unix_ms,omitempty"`
	// Seq orders entries within a tenant (FIFO); assigned at enqueue.
	Seq   uint64 `json:"seq"`
	State string `json:"state"`
	// DedupOf names the primary request that answered this entry, when
	// it completed via memoization.
	DedupOf string `json:"dedup_of,omitempty"`
}

// queueRecord is one journal line.
type queueRecord struct {
	Op       string      `json:"op"` // "enqueue", "claim", "complete", "rekey"
	ID       string      `json:"id"`
	Entry    *QueueEntry `json:"entry,omitempty"`
	State    string      `json:"state,omitempty"`
	DedupOf  string      `json:"dedup_of,omitempty"`
	DedupKey string      `json:"dedup_key,omitempty"`
}

// PQueueOptions configures a queue at open time.
type PQueueOptions struct {
	// Weights maps tenant name to fair-share weight; absent tenants get
	// 1. Weights apply at replay too, so a reopened queue charges
	// virtual time exactly as the original did.
	Weights map[string]float64
}

const queueJournalName = "queue.log"

// OpenPQueue creates or recovers the queue journal in dir and returns
// claimed-but-unfinished entries to the queue (their claimer died with
// the process).
func OpenPQueue(ctx context.Context, dir string, opt PQueueOptions) (*PQueue, error) {
	q := &PQueue{
		ctx:     ctx,
		entries: make(map[string]*QueueEntry),
		pending: make(map[string][]string),
		vtime:   make(map[string]float64),
		weights: make(map[string]float64),
		ready:   make(chan struct{}, 1),
	}
	for t, w := range opt.Weights {
		if w > 0 {
			q.weights[t] = w
		}
	}
	j, err := journal.Open(filepath.Join(dir, queueJournalName), q.applyLocked)
	if err != nil {
		return nil, fmt.Errorf("recast: queue: %w", err)
	}
	q.journal = j
	// Orphaned claims: the worker died with the process. Hand the work
	// back, preserving tenant FIFO order by seq. In-memory only — the
	// journal already proves the entry was accepted, and the next claim
	// re-journals its own line.
	q.requeueOrphansLocked()
	for _, ids := range q.pending {
		if len(ids) > 0 {
			q.signalLocked()
			break
		}
	}
	return q, nil
}

// Close releases the journal handle; the directory stays valid for a
// later OpenPQueue.
func (q *PQueue) Close() error { return q.journal.Close() }

// applyLocked folds one record into the state tables. Callers hold mu
// (or, during Open, have exclusive access).
func (q *PQueue) applyLocked(rec queueRecord) error {
	switch rec.Op {
	case "enqueue":
		if rec.Entry == nil || rec.Entry.ID == "" {
			return fmt.Errorf("recast: enqueue without entry")
		}
		e := *rec.Entry
		e.State = EntryQueued
		q.entries[e.ID] = &e
		q.pending[e.Tenant] = append(q.pending[e.Tenant], e.ID)
		if e.Seq > q.seq {
			q.seq = e.Seq
		}
	case "claim":
		e, ok := q.entries[rec.ID]
		if !ok {
			return fmt.Errorf("recast: claim of unknown entry %s", rec.ID)
		}
		q.removePendingLocked(e)
		// A repeated claim line means a crash orphaned the first claim
		// and a later claimer took the entry again; the tenant is
		// charged once per service, not once per line.
		if e.State != EntryClaimed {
			q.vtime[e.Tenant] += 1 / q.weightOf(e.Tenant)
		}
		e.State = EntryClaimed
	case "complete":
		e, ok := q.entries[rec.ID]
		if !ok {
			return fmt.Errorf("recast: complete of unknown entry %s", rec.ID)
		}
		q.removePendingLocked(e)
		e.State = rec.State
		e.DedupOf = rec.DedupOf
	case "rekey":
		e, ok := q.entries[rec.ID]
		if !ok {
			return fmt.Errorf("recast: rekey of unknown entry %s", rec.ID)
		}
		e.DedupKey = rec.DedupKey
	default:
		return fmt.Errorf("recast: unknown queue op %q", rec.Op)
	}
	return nil
}

func (q *PQueue) removePendingLocked(e *QueueEntry) {
	ids := q.pending[e.Tenant]
	for i, id := range ids {
		if id == e.ID {
			q.pending[e.Tenant] = append(ids[:i:i], ids[i+1:]...)
			return
		}
	}
}

func (q *PQueue) weightOf(tenant string) float64 {
	if w, ok := q.weights[tenant]; ok {
		return w
	}
	return 1
}

// requeueOrphansLocked returns claimed entries to their tenant queues in
// seq order — recovery of work whose claimer died.
func (q *PQueue) requeueOrphansLocked() {
	var orphans []*QueueEntry
	for _, e := range q.entries {
		if e.State == EntryClaimed {
			orphans = append(orphans, e)
		}
	}
	sort.Slice(orphans, func(i, j int) bool { return orphans[i].Seq < orphans[j].Seq })
	for _, e := range orphans {
		e.State = EntryQueued
		// Refund the claim charge: the service never happened, and the
		// next claim will charge again — so a crashed-and-recovered
		// queue converges to the same virtual times as one that never
		// crashed.
		q.vtime[e.Tenant] -= 1 / q.weightOf(e.Tenant)
		// Reinsert preserving seq order among the tenant's queued IDs.
		ids := q.pending[e.Tenant]
		at := sort.Search(len(ids), func(i int) bool {
			return q.entries[ids[i]].Seq > e.Seq
		})
		ids = append(ids, "")
		copy(ids[at+1:], ids[at:])
		ids[at] = e.ID
		q.pending[e.Tenant] = ids
	}
}

// commitLocked journals one record and, once it is durable, folds it into
// memory — state never runs ahead of the disk.
func (q *PQueue) commitLocked(rec queueRecord) error {
	if err := q.journal.Append(rec); err != nil {
		return fmt.Errorf("recast: queue: %w", err)
	}
	return q.applyLocked(rec)
}

// Enqueue accepts one unit of work. Idempotent per ID: re-enqueueing an
// entry the journal already knows (any state) is a no-op, so a client
// retrying after an ambiguous crash cannot double-queue a request. The
// entry's Seq is assigned here.
func (q *PQueue) Enqueue(e QueueEntry) error {
	if e.ID == "" || e.Tenant == "" {
		return fmt.Errorf("recast: queue entry needs an id and a tenant")
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, exists := q.entries[e.ID]; exists {
		return nil
	}
	q.seq++
	e.Seq = q.seq
	e.State = EntryQueued
	if err := q.commitLocked(queueRecord{Op: "enqueue", ID: e.ID, Entry: &e}); err != nil {
		return err
	}
	q.signalLocked()
	return nil
}

// signalLocked pulses the ready channel without blocking.
func (q *PQueue) signalLocked() {
	select {
	case q.ready <- struct{}{}:
	default:
	}
}

// Ready returns a channel that pulses when work may be claimable.
// Workers select on it alongside their context; a pulse is a hint, not
// a guarantee — always re-try Claim.
func (q *PQueue) Ready() <-chan struct{} { return q.ready }

// Claim journals and returns the next entry under weighted fair
// queuing: the eligible tenant with the least virtual time (ties by
// name), FIFO within the tenant. ok is false when nothing is queued.
func (q *PQueue) Claim() (e QueueEntry, ok bool, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	tenant := ""
	for t, ids := range q.pending {
		if len(ids) == 0 {
			continue
		}
		if tenant == "" || q.vtime[t] < q.vtime[tenant] ||
			(q.vtime[t] == q.vtime[tenant] && t < tenant) {
			tenant = t
		}
	}
	if tenant == "" {
		return QueueEntry{}, false, nil
	}
	id := q.pending[tenant][0]
	if err := q.commitLocked(queueRecord{Op: "claim", ID: id}); err != nil {
		return QueueEntry{}, false, err
	}
	return *q.entries[id], true, nil
}

// Complete journals an entry's terminal state (EntryDone, EntryFailed,
// or EntryExpired), with dedupOf recording a memoized completion.
// Idempotent: completing an already-terminal entry is a no-op, so a
// post-crash replay of the same script cannot double-complete.
func (q *PQueue) Complete(id, state, dedupOf string) error {
	switch state {
	case EntryDone, EntryFailed, EntryExpired:
	default:
		return fmt.Errorf("recast: %q is not a terminal queue state", state)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	e, ok := q.entries[id]
	if !ok {
		return fmt.Errorf("recast: queue has no entry %s", id)
	}
	if e.State != EntryQueued && e.State != EntryClaimed {
		return nil
	}
	return q.commitLocked(queueRecord{Op: "complete", ID: id, State: state, DedupOf: dedupOf})
}

// Rekey journals a new dedup key for a live entry: what a server restarted
// over a different chain does to the work it inherits, so that the result
// is archived under the chain that computes it. A terminal entry keeps the
// key it finished under.
func (q *PQueue) Rekey(id, dedupKey string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	e, ok := q.entries[id]
	if !ok {
		return fmt.Errorf("recast: queue has no entry %s", id)
	}
	if e.State != EntryQueued && e.State != EntryClaimed {
		return nil
	}
	return q.commitLocked(queueRecord{Op: "rekey", ID: id, DedupKey: dedupKey})
}

// Get returns a copy of an entry.
func (q *PQueue) Get(id string) (QueueEntry, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	e, ok := q.entries[id]
	if !ok {
		return QueueEntry{}, false
	}
	return *e, true
}

// QueueStats is the live census the admission controller and the status
// endpoint read.
type QueueStats struct {
	Queued   int            `json:"queued"`
	Claimed  int            `json:"claimed"`
	Terminal int            `json:"terminal"`
	ByTenant map[string]int `json:"by_tenant"` // queued depth per tenant
}

// Stats returns the live census.
func (q *PQueue) Stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := QueueStats{ByTenant: make(map[string]int)}
	for t, ids := range q.pending {
		if len(ids) > 0 {
			st.ByTenant[t] = len(ids)
		}
		st.Queued += len(ids)
	}
	for _, e := range q.entries {
		if e.State == EntryClaimed {
			st.Claimed++
		} else if e.State != EntryQueued {
			st.Terminal++
		}
	}
	return st
}

// StateSnapshot renders the queue's full logical state as canonical
// bytes: every entry sorted by ID, then each tenant's queued order,
// then per-tenant virtual times — the equality the kill-point sweep
// asserts between a crashed-and-recovered queue and an uncrashed
// reference.
func (q *PQueue) StateSnapshot() []byte {
	q.mu.Lock()
	defer q.mu.Unlock()
	type snapshot struct {
		Entries []QueueEntry        `json:"entries"`
		Pending map[string][]string `json:"pending"`
		VTime   map[string]float64  `json:"vtime"`
	}
	s := snapshot{Pending: make(map[string][]string), VTime: make(map[string]float64)}
	ids := make([]string, 0, len(q.entries))
	for id := range q.entries {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		s.Entries = append(s.Entries, *q.entries[id])
	}
	for t, p := range q.pending {
		if len(p) > 0 {
			s.Pending[t] = append([]string(nil), p...)
		}
	}
	for t, v := range q.vtime {
		if v != 0 {
			s.VTime[t] = v
		}
	}
	out, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		// Snapshot marshals plain structs of strings and numbers; failure
		// here is a programming error, and tests would catch it loudly.
		return []byte("snapshot-error: " + err.Error())
	}
	return out
}
