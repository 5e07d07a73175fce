package recast

import (
	"sort"
	"sync"
)

// pqueue is the fair scheduler behind the RECAST front door. It
// holds nothing durable: what it owes is the approved requests of the
// request ledger, and NewServer rebuilds it from them (restoreQueue),
// so claiming and finishing are memory-only and a claim a dead process
// held simply was never made.
//
// Scheduling is fair queuing over tenants: each tenant carries a count of
// the requests it has been served, and claim always serves the eligible
// tenant with the smallest count (ties by name). A tenant that floods the
// queue only queues behind itself; everyone else's share is untouched.
type pqueue struct {
	mu sync.Mutex
	// pending holds each tenant's queued entries in seq order.
	pending map[string][]entry
	// served counts each tenant's sequenced requests claimed or charged.
	served map[string]int
	// seq is the last sequence number handed out.
	seq               uint64
	claimed, terminal int

	// ready pulses when work becomes claimable; workers select on it.
	ready chan struct{}
}

// entry is one unit of accepted work as a worker needs it: which request,
// whose share it runs on, its place in that tenant's FIFO, and the absolute
// deadline (wall clock, milliseconds since epoch; 0 means none) past which
// nobody is waiting for it. All three are journaled on the request's
// approved snapshot.
type entry struct {
	id, tenant     string
	seq            uint64
	deadlineUnixMs int64
}

// newPQueue returns an empty scheduler.
func newPQueue() *pqueue {
	return &pqueue{
		pending: make(map[string][]entry),
		served:  make(map[string]int),
		ready:   make(chan struct{}, 1),
	}
}

// restoreQueue rebuilds the scheduler from the replayed ledger, appending
// nothing. An approved request is owed: it is queued under its journaled
// sequence number and deadline (whoever had claimed it died with the
// process, and the claim with them). A sequenced request that already
// finished counts once for its tenant, as it did in the scheduler that
// served it. The memoization index needs nothing here: the ledger folds
// each done snapshot's journaled key as it replays.
//
// An approved request with no sequence number — accepted by a commit that
// died before it queued it, or approved through an in-process door an
// earlier build had — is owed all the same, and queues ahead of its
// tenant's sequenced work.
func restoreQueue(ledger []*record) *pqueue {
	q := newPQueue()
	for _, rec := range ledger {
		e := entryOf(rec)
		if e.seq > q.seq {
			q.seq = e.seq
		}
		switch {
		case rec.Status == StatusApproved:
			q.push(e)
		case e.seq != 0: // done or failed: nothing else outlives approval
			q.charge(e.tenant)
		}
	}
	return q
}

// entryOf reads a request's scheduler entry off its ledger record.
func entryOf(rec *record) entry {
	e := entry{id: rec.ID, tenant: rec.Requester}
	if q := rec.Queue; q != nil {
		e.seq, e.deadlineUnixMs = q.Seq, q.DeadlineUnixMs
	}
	return e
}

// nextSeq hands out the sequence number an acceptance journals. A number
// whose append then fails is simply never used.
func (q *pqueue) nextSeq() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.seq++
	return q.seq
}

// push queues an entry behind its tenant's earlier sequence numbers —
// the one insertion live acceptance and recovery share, so a recovered
// queue is in the order the original was.
func (q *pqueue) push(e entry) {
	q.mu.Lock()
	defer q.mu.Unlock()
	es := q.pending[e.tenant]
	at := sort.Search(len(es), func(i int) bool { return es[i].seq > e.seq })
	es = append(es, entry{})
	copy(es[at+1:], es[at:])
	es[at] = e
	q.pending[e.tenant] = es
	select {
	case q.ready <- struct{}{}:
	default:
	}
}

// claim returns the next entry under fair queuing — the eligible tenant
// served least so far (ties by name), FIFO within the tenant — and counts
// it for the tenant. ok is false when nothing is queued.
func (q *pqueue) claim() (e entry, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	tenant := ""
	for t, es := range q.pending {
		if len(es) == 0 {
			continue
		}
		if tenant == "" || q.served[t] < q.served[tenant] ||
			(q.served[t] == q.served[tenant] && t < tenant) {
			tenant = t
		}
	}
	if tenant == "" {
		return entry{}, false
	}
	e = q.pending[tenant][0]
	q.pending[tenant] = q.pending[tenant][1:]
	q.served[tenant]++
	q.claimed++
	return e, true
}

// finish records that a claimed entry reached a terminal state.
func (q *pqueue) finish() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.claimed--
	q.terminal++
}

// charge accounts for a sequenced request that is terminal without having
// been claimed here: one answered from the archive as it was accepted, or
// one recovery finds already finished. Every sequenced request counts
// for its tenant exactly once, so a recovered scheduler carries the counts
// of one that never stopped.
func (q *pqueue) charge(tenant string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.served[tenant]++
	q.terminal++
}

// QueueStats is the live census the admission controller and the status
// endpoint read.
type QueueStats struct {
	Queued   int            `json:"queued"`
	Claimed  int            `json:"claimed"`
	Terminal int            `json:"terminal"`
	ByTenant map[string]int `json:"by_tenant"` // queued depth per tenant
}

func (q *pqueue) stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := QueueStats{Claimed: q.claimed, Terminal: q.terminal, ByTenant: make(map[string]int)}
	for t, es := range q.pending {
		if len(es) > 0 {
			st.ByTenant[t] = len(es)
		}
		st.Queued += len(es)
	}
	return st
}
