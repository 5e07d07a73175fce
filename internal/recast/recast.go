// Package recast implements the RECAST-style reinterpretation framework of
// §2.3: "a 'front end' interface to the outside world where those
// interested in re-using an analysis can submit requests ... The RECAST
// API would mediate between the user interface and various capabilities
// provided by the 'back end' processing installation. The back end does
// all of the processing and analysis work, and the results, if approved,
// are returned to the user."
//
// The design preserves the paper's "closed system" properties: the
// experiment subscribes analyses (exposing only name and description, not
// the implementation), every request needs explicit experiment approval
// before the back end runs, and the requester only ever sees the final
// numbers. Back ends are pluggable — the full-simulation chain here, or
// the RIVET bridge of package bridge (the DASPOS interoperability project
// the paper's conclusions announce).
package recast

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"daspos/internal/conditions"
	"daspos/internal/datamodel"
	"daspos/internal/detector"
	"daspos/internal/eventflow"
	"daspos/internal/generator"
	"daspos/internal/hepmc"
	"daspos/internal/journal"
	"daspos/internal/leshouches"
	"daspos/internal/rawdata"
	"daspos/internal/reco"
	"daspos/internal/resilience"
	"daspos/internal/sim"
	"daspos/internal/xrand"
)

// Status is a request's lifecycle state.
type Status string

// Request lifecycle: submitted → approved; approved → done|failed. No
// route rejects a request any more, but journals written while one did
// hold rejected requests, and they reopen as they were.
const (
	StatusSubmitted Status = "submitted"
	StatusApproved  Status = "approved"
	StatusRejected  Status = "rejected"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
)

// ModelSpec is the new-physics model a requester submits.
type ModelSpec struct {
	// Process names the signal hypothesis; "zprime" is the supported
	// catalogue entry (mass-parameterized dimuon resonance).
	Process string `json:"process"`
	// MassGeV is the resonance pole mass.
	MassGeV float64 `json:"mass_gev"`
	// Events is the Monte Carlo statistics to generate.
	Events int `json:"events"`
	// Seed makes the processing reproducible; recorded with the result.
	Seed uint64 `json:"seed"`
	// CrossSectionPb is the model's predicted production cross section in
	// picobarns, when the requester wants an exclusion verdict; 0 skips
	// the verdict.
	CrossSectionPb float64 `json:"cross_section_pb,omitempty"`
}

// Validate checks the model is processable.
func (m ModelSpec) Validate() error {
	if m.Process != "zprime" {
		return fmt.Errorf("recast: unsupported process %q", m.Process)
	}
	if m.MassGeV < 50 || m.MassGeV > 6000 {
		return fmt.Errorf("recast: mass %v GeV outside generator validity", m.MassGeV)
	}
	if m.Events <= 0 || m.Events > 200000 {
		return fmt.Errorf("recast: event count %d out of range", m.Events)
	}
	return nil
}

// Result is what an approved, processed request returns to the outside
// world: numbers, never code or events.
type Result struct {
	Analysis   string  `json:"analysis"`
	BackEnd    string  `json:"back_end"`
	Generated  int     `json:"generated"`
	Selected   int     `json:"selected"`
	Acceptance float64 `json:"acceptance"`
	// CutFlow counts survivors after each selection stage.
	CutFlow []int `json:"cut_flow"`
	// UpperLimitEvents and UpperLimitXsecPb are the 95% CL constraints.
	UpperLimitEvents float64 `json:"upper_limit_events"`
	UpperLimitXsecPb float64 `json:"upper_limit_xsec_pb"`
	// PredictedEvents is σ·L·A for the requester's cross section (0 when
	// no cross section was supplied); Excluded reports whether the
	// prediction exceeds the 95% CL limit.
	PredictedEvents float64 `json:"predicted_events,omitempty"`
	Excluded        bool    `json:"excluded,omitempty"`
}

// NewResult turns the cut flow of a model's sample (leshouches.Tally of
// every event, or AnalysisRecord.CutFlow of them all) into what the back
// end named returns for it: acceptance, limits at luminosityPb, and the
// exclusion verdict when the model carries a cross section.
func NewResult(backEnd string, record *leshouches.AnalysisRecord, flow []int, model ModelSpec, luminosityPb float64) *Result {
	rei := record.Interpret(flow, luminosityPb)
	res := &Result{
		Analysis: record.Name, BackEnd: backEnd,
		Generated: rei.Generated, Selected: rei.Selected,
		Acceptance: rei.Acceptance, CutFlow: flow,
		UpperLimitEvents: rei.UpperLimitEvents,
		UpperLimitXsecPb: rei.UpperLimitXsecPb,
	}
	if model.CrossSectionPb <= 0 || luminosityPb <= 0 {
		return res
	}
	res.PredictedEvents = model.CrossSectionPb * luminosityPb * res.Acceptance
	res.Excluded = res.PredictedEvents > res.UpperLimitEvents
	return res
}

// Attempt is one back-end processing try, kept on the request so a
// dead-lettered failure carries its full history for the operator.
type Attempt struct {
	// N is the 1-based attempt number.
	N int `json:"n"`
	// Error is the attempt's failure, empty on success.
	Error string `json:"error,omitempty"`
	// Class is the resilience classification of the failure
	// (transient/permanent/unknown), empty on success.
	Class string `json:"class,omitempty"`
}

// Request is one reinterpretation request.
type Request struct {
	ID        string `json:"id"`
	Analysis  string `json:"analysis"`
	Requester string `json:"requester"`
	// Motivation is the free-form physics case shown to approvers.
	Motivation string    `json:"motivation,omitempty"`
	Model      ModelSpec `json:"model"`
	Status     Status    `json:"status"`
	// Reason documents a rejection or failure.
	Reason string  `json:"reason,omitempty"`
	Result *Result `json:"result,omitempty"`
	// Attempts is the back-end processing history: one entry per try,
	// the audit trail behind a dead-lettered (failed) request.
	Attempts []Attempt `json:"attempts,omitempty"`
	// DedupOf names the primary request whose archived result answered
	// this one — set only when the request was served by memoization
	// rather than a back-end run.
	DedupOf string `json:"dedup_of,omitempty"`
}

// Subscription is an analysis the experiment offers for reinterpretation.
// Only Name is visible through the API, as what a request names; the
// record itself stays inside the service ("none of this code base would be
// exposed to the outside world").
type Subscription struct {
	Name        string
	Description string // read by nothing; bench/recast.go still sets it
	Record      *leshouches.AnalysisRecord
}

// Backend runs an approved request against a preserved analysis.
type Backend interface {
	// ConfigDigest is everything beyond the model that determines the
	// back end's output — the preserved chain configuration, calibration,
	// luminosity. It joins the dedup key, so two requests only coalesce
	// when they would run the *same* computation.
	ConfigDigest() string
	// Process generates the model and applies the preserved analysis. The
	// context carries the request's propagated deadline: a back end should
	// abandon work promptly once the requester can no longer receive it.
	Process(ctx context.Context, model ModelSpec, record *leshouches.AnalysisRecord) (*Result, error)
}

// DedupKey derives the memoization key for a request: two requests with
// the same analysis, the same canonical model, and the same back-end
// chain configuration produce byte-identical results, so the second can
// be answered from the archive of the first. Floats enter the hash
// through their IEEE-754 bits so the key is exact, never formatted.
func DedupKey(analysis string, model ModelSpec, chainDigest string) string {
	h := sha256.New()
	put := func(s string) {
		var n [8]byte
		writeUint64(&n, uint64(len(s)))
		h.Write(n[:])
		io.WriteString(h, s)
	}
	putU64 := func(v uint64) {
		var n [8]byte
		writeUint64(&n, v)
		h.Write(n[:])
	}
	put("recast-dedup-v1")
	put(analysis)
	put(model.Process)
	putU64(math.Float64bits(model.MassGeV))
	putU64(uint64(model.Events))
	putU64(model.Seed)
	putU64(math.Float64bits(model.CrossSectionPb))
	put(chainDigest)
	return hex.EncodeToString(h.Sum(nil))
}

// writeUint64 encodes v big-endian into n.
func writeUint64(n *[8]byte, v uint64) {
	for i := 7; i >= 0; i-- {
		n[i] = byte(v)
		v >>= 8
	}
}

// Errors returned by the service.
var (
	ErrNoRequest   = errors.New("recast: no such request")
	ErrNoAnalysis  = errors.New("recast: analysis not subscribed")
	ErrNotApproved = errors.New("recast: request not approved")
	ErrWrongState  = errors.New("recast: request in wrong state")
	// ErrJournal wraps a request-journal write failure: the mutation was
	// not applied, because it could not be made durable.
	ErrJournal = errors.New("recast: request journal write failed")
)

// Service is the request ledger of the one Server it is handed to: the
// state machine every request moves through, its journal and the
// memoization index. Outside this package it is built, subscribed and
// given to NewServer; Get reads a request without the HTTP hop. Safe for
// concurrent use.
type Service struct {
	mu      sync.Mutex
	backend Backend
	// subs holds the subscribed analyses by name.
	subs     map[string]Subscription
	requests map[string]*record
	nextID   int
	// archive maps a dedup key to the ID of the finished back-end run whose
	// result answers any identical request (see installLocked).
	archive map[string]string
	// journal, opened by the Server, records every request mutation
	// before it is applied (see persist.go); journalErr keeps the first
	// write failure. chainDigest, taken with it, is the back end's
	// configuration digest — the part of every dedup key that says which
	// chain computes under it; the back end cannot change under an open
	// journal, so it is taken once.
	journal     *journal.Journal
	journalErr  error
	chainDigest string
}

// NewService returns a service over the given back end.
func NewService(backend Backend) *Service {
	return &Service{
		backend:  backend,
		subs:     make(map[string]Subscription),
		requests: make(map[string]*record),
		archive:  make(map[string]string),
	}
}

// Subscribe offers an analysis for reinterpretation.
func (s *Service) Subscribe(sub Subscription) error {
	if sub.Name == "" || sub.Record == nil {
		return fmt.Errorf("recast: subscription needs a name and a record")
	}
	if err := sub.Record.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.subs[sub.Name]; dup {
		return fmt.Errorf("recast: analysis %q already subscribed", sub.Name)
	}
	s.subs[sub.Name] = sub
	return nil
}

// submit files a new request against a subscribed analysis, for a
// requester who stops waiting at deadlineUnixMs (0: never); the deadline
// is journaled with the request.
func (s *Service) submit(analysis, requester, motivation string, model ModelSpec, deadlineUnixMs int64) (*Request, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if requester == "" {
		return nil, fmt.Errorf("recast: request needs a requester")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.subs[analysis]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoAnalysis, analysis)
	}
	rec := &record{Request: Request{
		ID:         fmt.Sprintf("req-%06d", s.nextID+1),
		Analysis:   analysis,
		Requester:  requester,
		Motivation: motivation,
		Model:      model,
		Status:     StatusSubmitted,
	}}
	if deadlineUnixMs != 0 {
		rec.Queue = &queueState{DeadlineUnixMs: deadlineUnixMs}
	}
	if err := s.commitLocked(rec); err != nil {
		return nil, err
	}
	s.nextID++
	return cloneRequest(&rec.Request), nil
}

// Get returns a request by ID.
func (s *Service) Get(id string) (*Request, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	req, ok := s.requests[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoRequest, id)
	}
	return cloneRequest(&req.Request), nil
}

// accept moves a submitted request to approved — the experiment's
// "complete control over which analyses were allowed to become public".
// The approved snapshot also carries seq, the request's place in the
// queue, so that approving and queueing are one durable append. It
// returns that snapshot.
func (s *Service) accept(id string, seq uint64) (*record, error) {
	return s.transition(id, StatusSubmitted, StatusApproved, "", seq)
}

// transition commits the request's move from one status to another and
// returns the new snapshot; a non-zero seq is journaled with it.
func (s *Service) transition(id string, from, to Status, reason string, seq uint64) (*record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	req, ok := s.requests[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoRequest, id)
	}
	if req.Status != from {
		return nil, fmt.Errorf("%w: %s is %s", ErrWrongState, id, req.Status)
	}
	next := *req
	next.Status, next.Reason = to, reason
	if seq != 0 {
		next.Queue = req.Queue.edit()
		next.Queue.Seq = seq
	}
	if err := s.commitLocked(&next); err != nil {
		return nil, err
	}
	return &next, nil
}

// gateError reports whether the error is a front-door rejection (missing
// or not-approved request, or a ledger that cannot record the outcome)
// rather than a back-end failure: the request stays as it was.
func gateError(err error) bool {
	return errors.Is(err, ErrNoRequest) || errors.Is(err, ErrNotApproved) || errors.Is(err, ErrJournal)
}

// processOnce runs one back-end attempt for an approved request and
// appends it to the request's attempt history — without deciding the
// request's fate. processWithPolicy owns the terminal transition.
func (s *Service) processOnce(ctx context.Context, id string) (*Result, error) {
	s.mu.Lock()
	req, ok := s.requests[id]
	if !ok {
		s.mu.Unlock()
		return nil, resilience.MarkPermanent(fmt.Errorf("%w: %s", ErrNoRequest, id))
	}
	if req.Status != StatusApproved {
		s.mu.Unlock()
		return nil, resilience.MarkPermanent(fmt.Errorf("%w: %s is %s", ErrNotApproved, id, req.Status))
	}
	sub := s.subs[req.Analysis]
	model := req.Model
	s.mu.Unlock()

	// The expensive part runs outside the lock.
	res, err := s.backend.Process(ctx, model, sub.Record)

	s.mu.Lock()
	defer s.mu.Unlock()
	next := *s.requests[id]
	at := Attempt{N: len(next.Attempts) + 1}
	if err != nil {
		at.Error = err.Error()
		at.Class = resilience.Classify(err).String()
	}
	// A fresh slice: the snapshot being replaced keeps its own history.
	next.Attempts = append(append([]Attempt(nil), next.Attempts...), at)
	if jerr := s.commitLocked(&next); jerr != nil {
		return nil, jerr
	}
	return res, err
}

// finish applies the terminal transition after the last attempt.
func (s *Service) finish(id string, res *Result, err error) (*Request, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	req, ok := s.requests[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoRequest, id)
	}
	next := *req
	if err != nil {
		next.Status, next.Reason = StatusFailed, err.Error()
	} else {
		next.Status, next.Result = StatusDone, res
		// The one place a dedup key is written: by the chain that ran.
		next.Queue = req.Queue.edit()
		next.Queue.DedupKey = DedupKey(next.Analysis, next.Model, s.chainDigest)
	}
	if jerr := s.commitLocked(&next); jerr != nil {
		return nil, jerr
	}
	return cloneRequest(&next.Request), err
}

// processWithPolicy runs the back end for an approved request under a
// retry policy: transient failures back off and retry, and only
// exhaustion (or a permanent/unclassified error) dead-letters the request
// to StatusFailed with its attempt history attached. Context cancellation
// leaves the request approved — in flight — so a journal replay after a
// crash or shutdown can recover and re-enqueue it.
func (s *Service) processWithPolicy(ctx context.Context, id string, pol resilience.Policy) (*Request, error) {
	var res *Result
	err := resilience.Retry(ctx, pol, func(actx context.Context) error {
		r, rerr := s.processOnce(actx, id)
		if rerr == nil {
			res = r
		}
		return rerr
	})
	if err != nil {
		if gateError(err) {
			return nil, err
		}
		// Retry reports outer-context death as a bare context error (an
		// *ExhaustedError means the attempt budget ran out, which is a
		// real failure even when the last attempt hit a deadline).
		var ex *resilience.ExhaustedError
		if !errors.As(err, &ex) &&
			(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			// Shutdown, not failure: leave the request in flight.
			return nil, err
		}
	}
	return s.finish(id, res, err)
}

// completeFromArchive finishes an approved request with the archived
// result of an identical, already-done primary request — the dedup hit
// path. The follower's result is a copy of the primary's, and DedupOf
// records the provenance so the audit trail shows no back-end run
// happened.
func (s *Service) completeFromArchive(id, primaryID string) (*Request, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	req, ok := s.requests[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoRequest, id)
	}
	if req.Status != StatusApproved {
		return nil, fmt.Errorf("%w: %s is %s", ErrWrongState, id, req.Status)
	}
	primary, ok := s.requests[primaryID]
	if !ok {
		return nil, fmt.Errorf("%w: dedup primary %s", ErrNoRequest, primaryID)
	}
	if primary.Status != StatusDone || primary.Result == nil {
		return nil, fmt.Errorf("%w: dedup primary %s is %s", ErrWrongState, primaryID, primary.Status)
	}
	rc := *primary.Result
	rc.CutFlow = append([]int(nil), primary.Result.CutFlow...)
	next := *req
	next.Status, next.Result, next.DedupOf = StatusDone, &rc, primaryID
	if err := s.commitLocked(&next); err != nil {
		return nil, err
	}
	return cloneRequest(&next.Request), nil
}

// archived looks an approved request up in the memoization index: the ID
// of a finished run of the same analysis and model on the chain this
// service would run it on, if there is one.
func (s *Service) archived(id string) (primary string, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	req, found := s.requests[id]
	if !found {
		return "", false
	}
	primary, ok = s.archive[DedupKey(req.Analysis, req.Model, s.chainDigest)]
	return primary, ok && primary != id
}

// answers reports whether the memoization index holds a finished run of
// this analysis and model on the chain this service would run it on: a
// submission of it costs the back end nothing.
func (s *Service) answers(analysis string, model ModelSpec) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.archive[DedupKey(analysis, model, s.chainDigest)]
	return ok
}

// expire dead-letters an approved request whose deadline passed before a
// worker could serve it — dropped at the queue, not failed by the back
// end. The distinct reason keeps shed-by-deadline visible in audits.
func (s *Service) expire(id, reason string) error {
	_, err := s.transition(id, StatusApproved, StatusFailed, reason, 0)
	return err
}

func cloneRequest(r *Request) *Request {
	cp := *r
	if r.Result != nil {
		rc := *r.Result
		rc.CutFlow = append([]int(nil), r.Result.CutFlow...)
		cp.Result = &rc
	}
	cp.Attempts = append([]Attempt(nil), r.Attempts...)
	return &cp
}

// FullSimBackend is the heavyweight back end: it re-runs the preserved
// experiment chain — generation, full detector simulation, digitization,
// reconstruction — before applying the archived analysis. This is the tier
// whose cost and platform coupling the paper's RECAST risk analysis is
// about.
type FullSimBackend struct {
	Det *detector.Detector
	// CondDB, Tag, and Run pin the calibration the chain uses.
	CondDB *conditions.DB
	Tag    string
	Run    uint32
	// LuminosityPb converts event limits to cross sections.
	LuminosityPb float64
	// Workers sets the worker count for the parallel pipeline stages
	// (simulation, reconstruction); zero or one runs sequentially. The
	// physics output is identical at any setting: simulation draws from
	// per-event RNG streams and reconstruction is deterministic, so only
	// wall time changes.
	Workers int
}

// Name labels the tier: it is the BackEnd of every result.
func (*FullSimBackend) Name() string { return "fullsim" }

// ConfigDigest implements Backend: everything beyond the model that
// determines the chain's output — geometry, reconstruction settings, the
// content of the calibration resolved under Tag and Run (two databases can
// publish different constants under one tag) and luminosity — through the
// helpers internal/chain records in a workflow's step configs. Workers is
// excluded on purpose: the physics output is identical at any worker count.
func (b *FullSimBackend) ConfigDigest() string {
	geometry, err := b.Det.Digest()
	if err != nil {
		// A geometry with no archival form shares a key only with one that
		// fails the same way.
		geometry = "unencodable: " + err.Error()
	}
	return fmt.Sprintf("fullsim|geometry=%s|reco=%s|conditions=%s|lumi=%x",
		geometry, reco.DefaultConfig(), b.CondDB.Snapshot(b.Tag, b.Run).Digest(), math.Float64bits(b.LuminosityPb))
}

// Process implements Backend. The chain runs as one streaming event-flow
// pipeline of two fused stages and a sink:
//
//	generate → [simulate + digitise] → [reconstruct + AOD view + selection] → cut-flow tally
//
// Each worker of a stage owns its scratch for the life of the request — the
// simulated event, its random stream and the digitiser's buffers in the
// first, the reconstructor and the selection evaluator in the second — and
// nothing that scratch backs is ever sent downstream: what crosses the
// first hand-off is a freshly built raw event, what crosses the second is
// an int. The split sits at the RAW hand-off rather than nowhere because a
// request alone on the machine still wants its two halves on two cores. No
// stage holds more than its batches in flight, so a request's memory does
// not grow with its event count. Reconstruction builds only what the record
// reads (reconstructorFor): a selection over muons alone never sees a
// calorimeter cell, so its events skip the half of the chain that reads them.
func (b *FullSimBackend) Process(ctx context.Context, model ModelSpec, record *leshouches.AnalysisRecord) (*Result, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	workers := b.Workers
	if workers < 1 {
		workers = 1
	}
	cfg := generator.DefaultConfig(model.Seed)
	gen := generator.NewZPrime(cfg, model.MassGeV)
	full := sim.NewFullSim(b.Det, model.Seed)
	snap := b.CondDB.Snapshot(b.Tag, b.Run)

	p := eventflow.New(ctx, "fullsim", eventflow.Options{})
	hepmcS := eventflow.Source(p, "generate", generator.EventSource(gen, model.Events))
	rawS := eventflow.MapWorkers(hepmcS, "simulate+digitize", workers, func(int) func(*hepmc.Event) (*rawdata.Event, bool, error) {
		var (
			simulated sim.Event
			rng       xrand.Rand
			digitizer rawdata.Digitizer
		)
		return func(ev *hepmc.Event) (*rawdata.Event, bool, error) {
			full.SimulateSeededInto(&simulated, &rng, ev)
			return digitizer.Digitize(b.Run, &simulated), true, nil
		}
	})
	// An event the selection cannot evaluate travels on as that error: the
	// sink meets errors in stream order, so the one reported is the first
	// event's, at any worker count.
	type verdict struct {
		depth int
		err   error
	}
	depthS := eventflow.MapWorkers(rawS, "reconstruct+select", workers, func(int) func(*rawdata.Event) (verdict, bool, error) {
		selection := record.NewEvaluator()
		reconstruct := reconstructorFor(reco.NewWithConfig(b.Det, reco.DefaultConfig()), selection)
		return func(raw *rawdata.Event) (verdict, bool, error) {
			ev, err := reconstruct(raw, snap)
			if err != nil {
				return verdict{}, false, err
			}
			aod := ev.SlimViewAOD()
			depth, err := selection.Depth(&aod)
			return verdict{depth, err}, true, nil
		}
	})
	flow := record.NewCutFlow()
	var selectionErr error
	eventflow.Sink(depthS, "cut-flow", func(v verdict) error {
		if v.err != nil {
			selectionErr = v.err
			return v.err
		}
		leshouches.Tally(flow, v.depth)
		if tallyHook != nil {
			tallyHook(flow[0])
		}
		return nil
	})
	err := p.Wait()
	if selectionErr != nil {
		return nil, selectionErr
	}
	if err != nil {
		return nil, fmt.Errorf("recast: fullsim chain: %w", err)
	}
	return NewResult(b.Name(), record, flow, model, b.LuminosityPb), nil
}

// tallyHook, when a test sets it, is called by FullSimBackend.Process's
// cut-flow sink after each event it tallies, with the events tallied so
// far, on the sink's goroutine: while it runs, the pipeline holds no more
// than its stages' batches in flight.
var tallyHook func(tallied int)

// reconstructorFor returns the part of rec's chain the selection reads: its
// tracker-and-muon half alone for a record that reads only muons, which
// then also skips the vertex fit, the calorimeters and the missing momentum;
// the full chain for any other. The record alone decides.
func reconstructorFor(rec *reco.Reconstructor, selection *leshouches.Evaluator) func(*rawdata.Event, reco.Source) (*datamodel.Event, error) {
	if selection.ReadsOnlyMuons() {
		return rec.ReconstructMuons
	}
	return rec.Reconstruct
}
