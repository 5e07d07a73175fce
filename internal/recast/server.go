package recast

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"daspos/internal/daemon"
	"daspos/internal/leshouches"
	"daspos/internal/resilience"
)

// Server is the overload-safe multi-tenant front door: the Service state
// machine behind admission control (per-tenant token buckets, queue
// bounds, deadline feasibility), a fair scheduler (pqueue), a
// worker pool with end-to-end deadline propagation, request memoization
// keyed by (model, chain config), and a breaker-gated back end whose
// brown-outs degrade intake instead of collapsing it.
//
// One journal (package journal) makes acceptance durable: requests.log,
// the request ledger, records what each request is and — on the approved
// snapshot — its place in the queue, so what the scheduler owes is the
// ledger's approved requests and nothing else has to agree with it. An
// accepted request — one the client saw a 2xx for — is never lost.
type Server struct {
	svc *Service
	pq  *pqueue
	cfg ServerConfig

	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	breaker *resilience.Breaker
	now     func() time.Time

	mu      sync.Mutex
	buckets map[string]*resilience.TokenBucket
	// ewmaMs tracks back-end service time (exponentially weighted) for
	// deadline-feasibility and Retry-After estimates.
	ewmaMs  float64
	tenants map[string]*TenantStatus

	admitted, shed, served, dedupHits, expired, failed uint64
}

// ServerConfig tunes the front door. The zero value serves with
// defaults: 2 workers, a 64-deep queue shrinking to 16 under
// degradation, unlimited tenant rates, manual approval. The back end's
// breaker opens after five straight failures and probes again after one
// second; while the back end browns out (breaker not closed) intake is
// bounded at a quarter of QueueBound, at least 1.
type ServerConfig struct {
	// JournalDir holds requests.log, the server's only durable state.
	// Required.
	JournalDir string
	// Workers is the processing pool size; < 1 means 2.
	Workers int
	// QueueBound sheds new work once this many entries are queued;
	// < 1 means 64.
	QueueBound int
	// TenantRate is each tenant's sustained admission rate in requests
	// per second; <= 0 means unlimited.
	TenantRate float64
	// TenantBurst is each tenant's bucket size; < 1 means 8.
	TenantBurst float64
	// AutoApprove approves every submitted request immediately — the
	// multi-tenant service mode, where the experiment pre-delegated
	// approval for subscribed analyses. When false, work enters the
	// queue at explicit approval.
	AutoApprove bool
	// Policy is the per-request back-end retry policy; a zero policy
	// means DefaultQueuePolicy.
	Policy resilience.Policy
	// Now is a test hook for the clock, the back-end breaker's included;
	// nil means time.Now.
	Now func() time.Time
}

// DefaultQueuePolicy is the per-request retry schedule the workers run
// under: a few capped, jittered attempts. Only transient failures retry;
// physics or validation errors dead-letter on the first strike.
func DefaultQueuePolicy() resilience.Policy {
	return resilience.Policy{
		MaxAttempts: 4,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    500 * time.Millisecond,
		Jitter:      0.2,
	}
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.Workers < 1 {
		c.Workers = 2
	}
	if c.QueueBound < 1 {
		c.QueueBound = 64
	}
	if c.TenantBurst < 1 {
		c.TenantBurst = 8
	}
	if c.Policy.MaxAttempts == 0 {
		c.Policy = DefaultQueuePolicy()
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// TenantStatus is one tenant's admission ledger.
type TenantStatus struct {
	Admitted uint64 `json:"admitted"`
	Shed     uint64 `json:"shed"`
	Served   uint64 `json:"served"`
}

// BudgetHeader carries a request's remaining deadline budget across the
// HTTP hop, as relative milliseconds (clock-skew tolerant).
const BudgetHeader = "X-Recast-Budget-Ms"

// NewServer builds the front door over a prepared Service (subscriptions
// registered, never handed to a Server before), recovering the request
// ledger from cfg.JournalDir and the scheduler from the ledger. Start
// launches the workers.
func NewServer(ctx context.Context, svc *Service, cfg ServerConfig) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.JournalDir == "" {
		return nil, fmt.Errorf("recast: server needs a journal directory")
	}
	if err := svc.openJournal(cfg.JournalDir); err != nil {
		return nil, err
	}

	sctx, cancel := context.WithCancel(ctx)
	s := &Server{
		svc: svc, pq: restoreQueue(svc.records()), cfg: cfg,
		ctx: sctx, cancel: cancel,
		breaker: resilience.NewBreaker(resilience.BreakerConfig{Now: cfg.Now}),
		now:     cfg.Now,
		buckets: make(map[string]*resilience.TokenBucket),
		tenants: make(map[string]*TenantStatus),
	}
	// Gate the back end behind the server's breaker so brown-outs trip
	// degraded intake.
	svc.backend = &gatedBackend{inner: svc.backend, breaker: s.breaker}
	return s, nil
}

// Start launches the worker pool.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Close stops the workers (in-flight work is abandoned mid-claim, to be
// recovered on the next open) and releases the journal.
func (s *Server) Close() error {
	s.cancel()
	s.wg.Wait()
	return s.svc.closeJournal()
}

// Service returns the server's request ledger, whose Get reads a request
// without the HTTP hop.
func (s *Server) Service() *Service { return s.svc }

// degraded reports whether the back end is browning out: any breaker
// state but closed means recent calls failed and intake should shrink.
func (s *Server) degraded() bool {
	return s.breaker.State() != resilience.Closed
}

// worker claims queue entries and drives them to a terminal state.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		e, ok := s.pq.claim()
		if !ok {
			select {
			case <-s.ctx.Done():
				return
			case <-s.pq.ready:
			case <-time.After(50 * time.Millisecond):
				// Re-poll: ready pulses are hints and another worker may
				// have consumed the one for our entry.
			}
			continue
		}
		s.handle(e)
	}
}

// handle drives one claimed entry: expire if the deadline already
// passed, answer from the archive on a dedup hit, otherwise run the
// back end under the propagated deadline. An outcome the ledger could not
// record leaves the claim open: the request is still approved on disk, and
// the next open queues it again.
func (s *Server) handle(e entry) {
	if e.deadlineUnixMs > 0 && s.now().UnixMilli() > e.deadlineUnixMs {
		s.expire(e.id, "deadline expired in queue")
		return
	}

	// Dedup: an identical computation already archived its numbers.
	if primary, hit := s.svc.archived(e.id); hit {
		if _, err := s.svc.completeFromArchive(e.id, primary); err == nil {
			s.pq.finish()
			s.countServed(e.tenant, true)
			return
		}
		// Fall through: archive said no (request in an odd state);
		// the back end is the safe path.
	}

	ctx := s.ctx
	if e.deadlineUnixMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, time.UnixMilli(e.deadlineUnixMs))
		defer cancel()
	}

	start := s.now()
	req, err := s.svc.processWithPolicy(ctx, e.id, s.cfg.Policy)
	s.observeServiceTime(s.now().Sub(start))

	switch {
	case err == nil && req != nil && req.Status == StatusDone:
		s.pq.finish()
		s.countServed(e.tenant, false)
	case req != nil && req.Status == StatusFailed:
		// Dead-lettered: exhausted retries or a permanent error.
		s.deadLetter()
	case s.ctx.Err() != nil, errors.Is(err, ErrJournal):
		// Shutdown, or a request ledger that cannot record the outcome.
		return
	case ctx.Err() != nil:
		// The request's own deadline died mid-processing.
		s.expire(e.id, "deadline expired during processing")
	default:
		// Gate errors (request vanished, wrong state): close the entry
		// so the queue cannot loop on it.
		s.deadLetter()
	}
}

// deadLetter closes a claimed entry whose request will never be served.
func (s *Server) deadLetter() {
	s.pq.finish()
	s.mu.Lock()
	s.failed++
	s.mu.Unlock()
}

func (s *Server) expire(id, reason string) {
	// The request may legitimately be past "approved" (a dedup race);
	// expire's state check keeps the ledger honest either way.
	if err := s.svc.expire(id, reason); errors.Is(err, ErrJournal) {
		return
	}
	s.pq.finish()
	s.mu.Lock()
	s.expired++
	s.mu.Unlock()
}

// countServed books one request answered for tenant, from the archive or
// by a back-end run.
func (s *Server) countServed(tenant string, fromArchive bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.served++
	if fromArchive {
		s.dedupHits++
	}
	if t := s.tenantLocked(tenant); t != nil {
		t.Served++
	}
}

// observeServiceTime folds one back-end run into the EWMA estimate.
func (s *Server) observeServiceTime(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ewmaMs == 0 {
		s.ewmaMs = ms
		return
	}
	s.ewmaMs = 0.8*s.ewmaMs + 0.2*ms
}

// tenantLocked returns the tenant ledger, creating it; callers hold mu.
func (s *Server) tenantLocked(name string) *TenantStatus {
	if name == "" {
		return nil
	}
	t, ok := s.tenants[name]
	if !ok {
		t = &TenantStatus{}
		s.tenants[name] = t
	}
	return t
}

// bucketFor returns the tenant's token bucket, creating it from config.
func (s *Server) bucketFor(tenant string) *resilience.TokenBucket {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[tenant]
	if !ok {
		b = resilience.NewTokenBucket(s.cfg.TenantRate, s.cfg.TenantBurst)
		b.SetClock(s.now)
		s.buckets[tenant] = b
	}
	return b
}

// admissionError is a shed decision: HTTP status plus how long the
// client should stay away.
type admissionError struct {
	status     int
	msg        string
	retryAfter time.Duration
}

func (e *admissionError) Error() string { return e.msg }

// admit decides whether a submission may enter: per-tenant rate, queue
// bound (shrunk under degradation), and deadline feasibility. A nil
// return admits. The rate meters back-end work, so a submission the
// archive already answers takes no token.
func (s *Server) admit(tenant string, budget time.Duration, answered bool) *admissionError {
	if !answered {
		if ok, retry := s.bucketFor(tenant).Take(); !ok {
			if retry < time.Second {
				retry = time.Second
			}
			return &admissionError{
				status: http.StatusTooManyRequests,
				msg:    fmt.Sprintf("tenant %s over rate limit", tenant), retryAfter: retry,
			}
		}
	}

	st := s.pq.stats()
	bound := s.cfg.QueueBound
	degraded := s.degraded()
	if degraded {
		bound = max(s.cfg.QueueBound/4, 1)
	}
	s.mu.Lock()
	ewma := s.ewmaMs
	s.mu.Unlock()
	// Estimated wait for a new arrival: everything queued ahead of it,
	// spread over the pool.
	estWait := time.Duration(ewma*float64(st.Queued)/float64(s.cfg.Workers)) * time.Millisecond
	if st.Queued >= bound {
		retry := estWait
		if retry < time.Second {
			retry = time.Second
		}
		msg := fmt.Sprintf("queue full (%d queued, bound %d)", st.Queued, bound)
		if degraded {
			msg = "degraded: " + msg
		}
		return &admissionError{status: http.StatusTooManyRequests, msg: msg, retryAfter: retry}
	}
	// A deadline the queue already cannot meet is shed at the door —
	// cheaper for everyone than accepting work we will expire.
	if budget > 0 && ewma > 0 && budget < estWait+time.Duration(ewma)*time.Millisecond {
		retry := estWait
		if retry < time.Second {
			retry = time.Second
		}
		return &admissionError{
			status: http.StatusTooManyRequests,
			msg: fmt.Sprintf("deadline budget %v below estimated service %v",
				budget, estWait+time.Duration(ewma)*time.Millisecond),
			retryAfter: retry,
		}
	}
	return nil
}

// Handler returns the front end — the one way into the service over HTTP:
//
//	POST /requests                  submit {analysis, requester, motivation, model};
//	                                behind admission control, 202 when auto-approved
//	GET  /requests/{id}             request status and (when done) result
//	GET  /status                    queue, breaker and per-tenant census
//	POST /requests/{id}/approve     experiment role; enqueues the work
//
// Processing is never a route: approved work runs from the fair queue.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /requests", s.handleSubmit)
	mux.HandleFunc("GET /requests/{id}", s.svc.handleGet)
	mux.HandleFunc("GET /status", s.handleStatus)
	mux.HandleFunc("POST /requests/{id}/approve", s.svc.experimentOnly(s.handleApprove))
	return mux
}

// shedResponse writes a 429 with Retry-After — the contract that lets a
// well-behaved client back off exactly as long as the server asks.
func shedResponse(w http.ResponseWriter, e *admissionError) {
	secs := int64((e.retryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	daemon.Error(w, e.status, e.msg)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var body submitBody
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&body); err != nil {
		daemon.Error(w, http.StatusBadRequest, "malformed request body: "+err.Error())
		return
	}
	if body.Requester == "" {
		daemon.Error(w, http.StatusBadRequest, "request needs a requester (tenant)")
		return
	}

	// Decode the propagated deadline before admission: feasibility is
	// part of the shed decision.
	var budget time.Duration
	if h := r.Header.Get(BudgetHeader); h != "" {
		var err error
		if budget, err = resilience.DecodeBudget(h); err != nil {
			daemon.Error(w, http.StatusBadRequest, err.Error())
			return
		}
		if budget == 0 {
			daemon.Error(w, http.StatusBadRequest, "deadline budget already expired")
			return
		}
	}

	if shed := s.admit(body.Requester, budget, s.svc.answers(body.Analysis, body.Model)); shed != nil {
		s.mu.Lock()
		s.shed++
		if t := s.tenantLocked(body.Requester); t != nil {
			t.Shed++
		}
		s.mu.Unlock()
		shedResponse(w, shed)
		return
	}

	var deadlineUnixMs int64
	if budget > 0 {
		deadlineUnixMs = s.now().Add(budget).UnixMilli()
	}
	req, err := s.svc.submit(body.Analysis, body.Requester, body.Motivation, body.Model, deadlineUnixMs)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, ErrJournal) {
			code = http.StatusInternalServerError
		}
		daemon.Error(w, code, err.Error())
		return
	}
	s.mu.Lock()
	s.admitted++
	if t := s.tenantLocked(body.Requester); t != nil {
		t.Admitted++
	}
	s.mu.Unlock()

	if !s.cfg.AutoApprove {
		// Closed-system mode: the request waits for the experiment, its
		// deadline with it; acceptance happens at approval.
		daemon.WriteJSON(w, http.StatusCreated, req)
		return
	}
	out, err := s.accept(req.ID)
	if err != nil {
		daemon.Error(w, http.StatusInternalServerError, err.Error())
		return
	}
	daemon.WriteJSON(w, http.StatusAccepted, out)
}

// accept approves a submitted request and makes it owed work in one
// append: the approved snapshot carries the request's sequence number next
// to the deadline journaled at submission, so there is no moment at which
// the ledger holds approved work the scheduler does not know. A failed
// append leaves the request submitted. On a dedup hit the request is then
// answered from the archive at once, charged to its tenant like any other
// accepted request; otherwise it queues.
func (s *Server) accept(id string) (*Request, error) {
	rec, err := s.svc.accept(id, s.pq.nextSeq())
	if err != nil {
		return nil, err
	}
	if primary, hit := s.svc.archived(id); hit {
		if done, err := s.svc.completeFromArchive(id, primary); err == nil {
			s.pq.charge(rec.Requester)
			s.countServed(rec.Requester, true)
			return done, nil
		}
	}
	s.pq.push(entryOf(rec))
	return cloneRequest(&rec.Request), nil
}

// handleApprove is the manual-approval path.
func (s *Server) handleApprove(w http.ResponseWriter, r *http.Request) {
	out, err := s.accept(r.PathValue("id"))
	if err != nil {
		daemon.Error(w, statusFor(err), err.Error())
		return
	}
	daemon.WriteJSON(w, http.StatusOK, out)
}

// ServerStatus is the GET /status document: the degradation flag first,
// then the live census operators page on.
type ServerStatus struct {
	Degraded  bool                    `json:"degraded"`
	Breaker   string                  `json:"breaker"`
	Queue     QueueStats              `json:"queue"`
	Workers   int                     `json:"workers"`
	EWMAMs    float64                 `json:"ewma_service_ms"`
	Admitted  uint64                  `json:"admitted"`
	Shed      uint64                  `json:"shed"`
	Served    uint64                  `json:"served"`
	DedupHits uint64                  `json:"dedup_hits"`
	Expired   uint64                  `json:"expired"`
	Failed    uint64                  `json:"failed"`
	Tenants   map[string]TenantStatus `json:"tenants,omitempty"`
	JournalOK bool                    `json:"journal_ok"`
}

// Status snapshots the server for the status endpoint and tests.
func (s *Server) Status() ServerStatus {
	st := ServerStatus{
		Degraded: s.degraded(),
		Breaker:  s.breaker.State().String(),
		Queue:    s.pq.stats(),
		Workers:  s.cfg.Workers,
	}
	s.mu.Lock()
	st.EWMAMs = s.ewmaMs
	st.Admitted, st.Shed, st.Served = s.admitted, s.shed, s.served
	st.DedupHits, st.Expired, st.Failed = s.dedupHits, s.expired, s.failed
	st.Tenants = make(map[string]TenantStatus, len(s.tenants))
	names := make([]string, 0, len(s.tenants))
	for name := range s.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st.Tenants[name] = *s.tenants[name]
	}
	s.mu.Unlock()
	s.svc.mu.Lock()
	st.JournalOK = s.svc.journalErr == nil
	s.svc.mu.Unlock()
	return st
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	daemon.WriteJSON(w, http.StatusOK, s.Status())
}

// gatedBackend wraps a back end behind a circuit breaker. Transient and
// unclassified failures trip it; permanent errors (invalid models, bad
// records) count as service health — the back end answered, the answer
// was just "no". A call the breaker sheds carries a retry hint of one
// second, the breaker's open interval.
type gatedBackend struct {
	inner   Backend
	breaker *resilience.Breaker
}

// ConfigDigest forwards the inner digest so dedup keys are unchanged by
// gating.
func (g *gatedBackend) ConfigDigest() string { return g.inner.ConfigDigest() }

// Process implements Backend.
func (g *gatedBackend) Process(ctx context.Context, model ModelSpec, record *leshouches.AnalysisRecord) (*Result, error) {
	if !g.breaker.Allow() {
		return nil, resilience.WithRetryAfter(resilience.MarkTransient(resilience.ErrOpen), time.Second)
	}
	res, err := g.inner.Process(ctx, model, record)
	if err != nil && resilience.IsPermanent(err) {
		g.breaker.Success()
	} else {
		g.breaker.Record(err)
	}
	return res, err
}
