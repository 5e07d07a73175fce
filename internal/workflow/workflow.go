// Package workflow implements the processing-workflow engine: the machinery
// that chains the paper's canonical steps (Raw→Reconstruction,
// Reconstruction→AOD, skimming/slimming, final analysis) while capturing
// everything preservation needs — the configuration of every step, the
// software versions that ran, the external resources each step touched,
// and a complete provenance record for every artifact produced.
//
// A Workflow is data plus code: the Description (steps, configs, versions,
// input/output wiring) is a serializable preservation artifact, while each
// step's Run function does the work. Executing a preserved description
// against re-registered step implementations reproduces the original
// artifacts — and the provenance store proves it, because record IDs are
// content addresses over configs and digests.
package workflow

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"slices"
	"sort"

	"daspos/internal/checkpoint"
	"daspos/internal/provenance"
)

// Artifact is a named, typed blob flowing between steps.
type Artifact struct {
	Name string
	// Tier labels the data tier ("RAW", "AOD", ...) for provenance.
	Tier string
	// Events is the artifact's event count, when meaningful.
	Events int
	Data   []byte

	// digest caches the content address. Artifacts are write-once: they
	// are sealed when published via Output or an ArtifactWriter, so the
	// first computation stays valid.
	digest string
}

// Digest returns the artifact's SHA-256 content address. Streamed
// artifacts carry the digest computed on the fly during writing; for
// others it is computed on first use and cached.
func (a *Artifact) Digest() string {
	if a.digest == "" {
		sum := sha256.Sum256(a.Data)
		a.digest = hex.EncodeToString(sum[:])
	}
	return a.digest
}

// Context is a step's window onto the run: declared inputs, produced
// outputs, and the external-dependency ledger.
type Context struct {
	ctx      context.Context
	step     *Step
	inputs   map[string]*Artifact
	outputs  map[string]*Artifact
	external []string
}

// Ctx returns the run's cancellation context, so streaming steps can bind
// their pipelines to the same lifetime as the workflow execution.
func (c *Context) Ctx() context.Context {
	if c.ctx == nil {
		return context.Background()
	}
	return c.ctx
}

// Input returns a declared input artifact.
func (c *Context) Input(name string) (*Artifact, error) {
	if !slices.Contains(c.step.Inputs, name) {
		return nil, fmt.Errorf("workflow: step %q did not declare input %q", c.step.Name, name)
	}
	a, ok := c.inputs[name]
	if !ok {
		return nil, fmt.Errorf("workflow: input %q not available to step %q", name, c.step.Name)
	}
	return a, nil
}

// InputReader returns a declared input artifact as a byte stream, the
// source end of a streaming step.
func (c *Context) InputReader(name string) (io.Reader, error) {
	a, err := c.Input(name)
	if err != nil {
		return nil, err
	}
	return bytes.NewReader(a.Data), nil
}

// Output publishes a declared output artifact.
func (c *Context) Output(name, tier string, events int, data []byte) error {
	if !slices.Contains(c.step.Outputs, name) {
		return fmt.Errorf("workflow: step %q did not declare output %q", c.step.Name, name)
	}
	if _, dup := c.outputs[name]; dup {
		return fmt.Errorf("workflow: step %q produced output %q twice", c.step.Name, name)
	}
	c.outputs[name] = &Artifact{Name: name, Tier: tier, Events: events, Data: data}
	return nil
}

// ArtifactWriter is the sink end of a streaming step: bytes written to it
// are hashed on the fly and kept in fixed-size blocks, so the provenance
// digest is ready the moment the stream closes — no second pass over the
// data — and Commit seals the artifact at its exact length. Obtain one
// with Context.StreamOutput and seal it with Commit.
type ArtifactWriter struct {
	ctx    *Context
	name   string
	tier   string
	blocks [][]byte // every block but the last is full
	hash   hash.Hash
	sealed bool
}

// blockSize is the fixed capacity of a writer's blocks. A growing buffer
// would hold up to twice the artifact while it streams and keep the slack
// once published; a block list holds at most one partial block of slack
// and is copied out once, at the exact size.
const blockSize = 64 << 10

// Write appends to the artifact in a single pass over p: each chunk feeds
// the running sha256 and is copied into the blocks, so publishing never
// re-reads the artifact to digest it.
func (w *ArtifactWriter) Write(p []byte) (int, error) {
	if w.sealed {
		return 0, fmt.Errorf("workflow: write to committed output %q", w.name)
	}
	w.hash.Write(p)
	for rest := p; len(rest) > 0; {
		if len(w.blocks) == 0 || len(w.blocks[len(w.blocks)-1]) == blockSize {
			w.blocks = append(w.blocks, make([]byte, 0, blockSize))
		}
		b := &w.blocks[len(w.blocks)-1]
		n := min(len(rest), blockSize-len(*b))
		*b = append(*b, rest[:n]...)
		rest = rest[n:]
	}
	return len(p), nil
}

// Commit publishes the artifact with the given event count. The data is
// copied out of the blocks once, at its exact length, and the digest is
// the one accumulated during writing.
func (w *ArtifactWriter) Commit(events int) error {
	if w.sealed {
		return fmt.Errorf("workflow: output %q committed twice", w.name)
	}
	w.sealed = true
	if _, dup := w.ctx.outputs[w.name]; dup {
		return fmt.Errorf("workflow: step %q produced output %q twice", w.ctx.step.Name, w.name)
	}
	var data []byte
	if n := len(w.blocks); n > 0 {
		data = make([]byte, 0, (n-1)*blockSize+len(w.blocks[n-1]))
		for _, b := range w.blocks {
			data = append(data, b...)
		}
	}
	w.blocks = nil
	w.ctx.outputs[w.name] = &Artifact{
		Name: w.name, Tier: w.tier, Events: events,
		Data:   data,
		digest: hex.EncodeToString(w.hash.Sum(nil)),
	}
	return nil
}

// StreamOutput opens a declared output for streaming production. The
// returned writer hashes while it buffers; call Commit to publish.
func (c *Context) StreamOutput(name, tier string) (*ArtifactWriter, error) {
	if !slices.Contains(c.step.Outputs, name) {
		return nil, fmt.Errorf("workflow: step %q did not declare output %q", c.step.Name, name)
	}
	if _, dup := c.outputs[name]; dup {
		return nil, fmt.Errorf("workflow: step %q produced output %q twice", c.step.Name, name)
	}
	return &ArtifactWriter{ctx: c, name: name, tier: tier, hash: sha256.New()}, nil
}

// External records that the step resolved an external resource (a
// conditions folder, a catalogue, a database). The engine aggregates these
// into the per-step dependency census of experiment W2.
func (c *Context) External(dep string) {
	c.external = append(c.external, dep)
}

// StepFunc is the executable body of a step.
type StepFunc func(ctx *Context) error

// Step is one node of the workflow.
type Step struct {
	// Name uniquely identifies the step within the workflow.
	Name string `json:"name"`
	// Software and Version pin the release that implements the step.
	Software string `json:"software"`
	Version  string `json:"version"`
	// Config is the step's full captured configuration.
	Config map[string]string `json:"config,omitempty"`
	// Inputs and Outputs wire the step into the artifact graph.
	Inputs  []string `json:"inputs,omitempty"`
	Outputs []string `json:"outputs"`
	// Run executes the step. It is nil in a deserialized description; the
	// runner re-binds implementations by step name.
	Run StepFunc `json:"-"`
}

// ConfigDigest returns the SHA-256 over the step's sorted configuration,
// the value provenance records as the step's configuration identity.
func (s *Step) ConfigDigest() string {
	keys := make([]string, 0, len(s.Config))
	for k := range s.Config {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, s.Config[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Workflow is an ordered chain of steps.
type Workflow struct {
	Name string `json:"name"`
	// ConditionsTag pins the calibration version for the whole run.
	ConditionsTag string `json:"conditions_tag,omitempty"`
	// PrimaryInputs are artifact names supplied from outside the workflow.
	PrimaryInputs []string `json:"primary_inputs,omitempty"`
	Steps         []Step   `json:"steps"`
}

// Validate checks the workflow is a well-formed chain: unique step and
// output names, every input available (a primary input or an earlier
// step's output), and every step runnable.
func (w *Workflow) Validate() error {
	if w.Name == "" {
		return fmt.Errorf("workflow: empty name")
	}
	// producer maps each available artifact to where it comes from, so
	// conflict errors can name the actual culprit instead of just the
	// artifact.
	producer := make(map[string]string)
	for _, in := range w.PrimaryInputs {
		producer[in] = "primary input"
	}
	stepNames := make(map[string]bool)
	for i := range w.Steps {
		s := &w.Steps[i]
		if s.Name == "" {
			return fmt.Errorf("workflow %q: step %d unnamed", w.Name, i)
		}
		if stepNames[s.Name] {
			return fmt.Errorf("workflow %q: duplicate step %q", w.Name, s.Name)
		}
		stepNames[s.Name] = true
		if len(s.Outputs) == 0 {
			return fmt.Errorf("workflow %q: step %q has no outputs", w.Name, s.Name)
		}
		for _, in := range s.Inputs {
			if _, ok := producer[in]; !ok {
				return fmt.Errorf("workflow %q: step %q input %q not produced by any earlier step or primary input", w.Name, s.Name, in)
			}
		}
		for _, out := range s.Outputs {
			if prev, dup := producer[out]; dup {
				return fmt.Errorf("workflow %q: output %q declared by step %q is already produced by %s", w.Name, out, s.Name, prev)
			}
			producer[out] = fmt.Sprintf("step %q", s.Name)
		}
	}
	return nil
}

// StepReport summarizes one executed step.
type StepReport struct {
	Step string
	// Skipped marks a step whose checkpointed outputs passed digest
	// verification on resume, so its Run never executed.
	Skipped bool
	// ExternalDeps are the distinct external resources resolved, sorted.
	ExternalDeps []string
	// OutputBytes and OutputEvents total the step's products.
	OutputBytes  int64
	OutputEvents int
}

// Result is the outcome of one workflow execution.
type Result struct {
	// Artifacts holds every artifact produced (not the primary inputs).
	Artifacts map[string]*Artifact
	// RecordIDs maps artifact names to their provenance records.
	RecordIDs map[string]string
	// Reports are per-step summaries in execution order.
	Reports []StepReport
	// Executed and Skipped count steps that ran versus steps restored
	// from a verified checkpoint.
	Executed int
	Skipped  int
}

// ExecOption configures one workflow execution.
type ExecOption func(*execConfig)

type execConfig struct {
	ledger *checkpoint.Ledger
	resume bool
}

// WithCheckpoint commits every finished step into the ledger as the run
// progresses: each artifact durably stored, then the step ingested as one
// package. A run killed at any instruction leaves the ledger recoverable
// for ResumeFrom.
func WithCheckpoint(l *checkpoint.Ledger) ExecOption {
	return func(c *execConfig) { c.ledger = l }
}

// ResumeFrom continues a run from a recovered ledger: a step is skipped
// only when the ledger holds a package of it under the same key (step
// name, config digest, input digests), its recorded outputs exactly match
// the declared ones, and every artifact reads back through the archive's
// checked Fetch. Anything less — interrupted step, torn roots line,
// damaged blob — re-executes the step, and the fresh execution is
// checkpointed again.
func ResumeFrom(l *checkpoint.Ledger) ExecOption {
	return func(c *execConfig) { c.ledger = l; c.resume = true }
}

// Execute runs the workflow over the given primary inputs, recording
// provenance for every artifact (including roots for the primary inputs)
// into prov. Steps missing a Run implementation fail the run. The context
// bounds the whole run: cancellation is checked between steps and exposed
// to each step via Context.Ctx.
//
// With a ledger, the ledger's work runs behind the compute: each Commit
// and Done are queued in the order the loop issues them and carried out,
// in that order, by one goroutine this call owns, while the next step
// computes. Execute returns — result, error or panic — only after that
// goroutine has exited, so a nil error still means every step is durable
// and the caller may close the ledger after any return. A failed commit
// cancels the running step and fails the run naming the step whose commit
// failed; a panic on the goroutine (an injected kill) cancels the running
// step, touches the ledger no further and is re-raised here.
func (w *Workflow) Execute(ctx context.Context, inputs map[string]*Artifact, prov *provenance.Store, opts ...ExecOption) (res *Result, err error) {
	var cfg execConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	pool := make(map[string]*Artifact, len(inputs))
	recordIDs := make(map[string]string)
	for _, name := range w.PrimaryInputs {
		a, ok := inputs[name]
		if !ok {
			return nil, fmt.Errorf("workflow %q: primary input %q not supplied", w.Name, name)
		}
		pool[name] = a
		id, err := prov.Add(provenance.Record{
			Output: provenance.Artifact{
				Name: a.Name, Digest: a.Digest(), Tier: a.Tier,
				Events: a.Events, Bytes: int64(len(a.Data)),
			},
			Producer:      provenance.Producer{Step: "primary-input", Software: "daspos-workflow", Version: "1"},
			ConditionsTag: w.ConditionsTag,
		})
		if err != nil {
			return nil, fmt.Errorf("workflow %q: recording primary input %q: %w", w.Name, name, err)
		}
		recordIDs[name] = id
	}

	var commits *commitQueue
	if cfg.ledger != nil {
		ops := 0
		for i := range w.Steps {
			ops += 1 + len(w.Steps[i].Outputs) // one Commit an output, Done
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		commits = startCommits(ops, cancel)
		// On every way out the queued commits of the steps that finished
		// complete first. A failed commit outranks whatever the loop was
		// returning: it comes earlier in the ledger's order, and it is
		// usually why the loop stopped.
		defer func() {
			if cerr := commits.finish(); cerr != nil {
				res, err = nil, fmt.Errorf("workflow %q: %w", w.Name, cerr)
			}
		}()
	}

	res = &Result{Artifacts: make(map[string]*Artifact), RecordIDs: recordIDs}
	for i := range w.Steps {
		s := &w.Steps[i]
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("workflow %q: %w", w.Name, err)
		}

		// The checkpoint key binds the step to its exact configuration and
		// input bytes; any drift invalidates the recorded step.
		var key string
		var inDigests []string
		if cfg.ledger != nil {
			for _, in := range s.Inputs {
				inDigests = append(inDigests, pool[in].Digest())
			}
			key = checkpoint.StepKey(s.Name, s.ConfigDigest(), inDigests)
		}

		var outputs map[string]*Artifact
		var deps []string
		skipped := false
		if cfg.resume {
			if restored, ext, ok := restoreStep(cfg.ledger, s, key); ok {
				outputs, deps, skipped = restored, ext, true
			}
		}
		if !skipped {
			if s.Run == nil {
				return nil, fmt.Errorf("workflow %q: step %q has no implementation bound", w.Name, s.Name)
			}
			sctx := &Context{ctx: ctx, step: s, inputs: pool, outputs: make(map[string]*Artifact)}
			if err := s.Run(sctx); err != nil {
				return nil, fmt.Errorf("workflow %q: step %q: %w", w.Name, s.Name, err)
			}
			outputs = sctx.outputs
			slices.Sort(sctx.external)
			deps = slices.Compact(sctx.external)
		}
		commit := commits != nil && !skipped

		var parents []string
		for _, in := range s.Inputs {
			parents = append(parents, recordIDs[in])
		}
		rep := StepReport{Step: s.Name, Skipped: skipped, ExternalDeps: deps}
		for _, out := range s.Outputs {
			a, ok := outputs[out]
			if !ok {
				return nil, fmt.Errorf("workflow %q: step %q did not produce declared output %q", w.Name, s.Name, out)
			}
			if commit {
				// The digest is sealed here, on this goroutine: Digest
				// caches without a lock, and the committer is handed
				// values, never the artifact.
				rec := checkpoint.ArtifactRecord{Name: a.Name, Tier: a.Tier, Events: a.Events, Digest: a.Digest()}
				data := a.Data
				commits.add(s.Name, func() error {
					_, err := cfg.ledger.Commit(key, rec, data)
					return err
				})
			}
			pool[out] = a
			res.Artifacts[out] = a
			id, err := prov.Add(provenance.Record{
				Output: provenance.Artifact{
					Name: a.Name, Digest: a.Digest(), Tier: a.Tier,
					Events: a.Events, Bytes: int64(len(a.Data)),
				},
				Producer: provenance.Producer{
					Step: s.Name, Software: s.Software, Version: s.Version,
					ConfigDigest: s.ConfigDigest(),
				},
				Parents:       parents,
				ConditionsTag: w.ConditionsTag,
				ExternalDeps:  deps,
			})
			if err != nil {
				return nil, fmt.Errorf("workflow %q: recording output %q: %w", w.Name, out, err)
			}
			recordIDs[out] = id
			rep.OutputBytes += int64(len(a.Data))
			rep.OutputEvents += a.Events
		}
		if commit {
			config := s.ConfigDigest()
			commits.add(s.Name, func() error { return cfg.ledger.Done(s.Name, config, inDigests, deps) })
		}
		if skipped {
			res.Skipped++
		} else {
			res.Executed++
		}
		res.Reports = append(res.Reports, rep)
	}
	return res, nil
}

// commitQueue carries one execution's ledger operations to the goroutine
// that performs them, strictly in the order they were added. What reaches
// the disk is therefore what a loop calling the ledger between steps would
// have written, in the same order: a crash leaves a prefix of that
// sequence, whichever step was computing meanwhile.
type commitQueue struct {
	ops    chan commitOp
	done   chan struct{}      // closed when the goroutine has exited
	cancel context.CancelFunc // stops the step running beside a commit that failed or died

	// Set by the goroutine before done closes, read only after it.
	err      error
	panicked any
}

type commitOp struct {
	step string
	do   func() error
}

// startCommits starts the goroutine. The queue holds every operation of
// the run, so add never blocks — not even once the goroutine has stopped
// early.
func startCommits(ops int, cancel context.CancelFunc) *commitQueue {
	q := &commitQueue{ops: make(chan commitOp, ops), done: make(chan struct{}), cancel: cancel}
	go q.run()
	return q
}

func (q *commitQueue) add(step string, do func() error) {
	q.ops <- commitOp{step: step, do: do}
}

// run performs the queued operations until the queue is closed or one of
// them fails or panics; after either, it issues nothing further.
func (q *commitQueue) run() {
	defer close(q.done)
	defer func() {
		if r := recover(); r != nil {
			q.panicked = r
			q.cancel()
		}
	}()
	for op := range q.ops {
		if err := op.do(); err != nil {
			q.err = fmt.Errorf("step %q: %w", op.step, err)
			q.cancel()
			return
		}
	}
}

// finish closes the queue, waits for the goroutine to exit and reports the
// commit that failed, if one did. A panic caught on the goroutine is
// re-raised here, on the caller's.
func (q *commitQueue) finish() error {
	close(q.ops)
	<-q.done
	q.cancel()
	if q.panicked != nil {
		panic(q.panicked)
	}
	return q.err
}

// restoreStep tries to satisfy a step from the ledger. It succeeds only
// when a package of the step is recorded under the key, the recorded
// artifacts are exactly the declared outputs, and every payload passes
// fixity; any failure reports false and the caller re-executes.
func restoreStep(l *checkpoint.Ledger, s *Step, key string) (map[string]*Artifact, []string, bool) {
	// A step records each artifact name once, so as many artifacts as
	// outputs, each a declared output, are exactly the outputs.
	info, ok := l.Lookup(key)
	if !ok || len(info.Artifacts) != len(s.Outputs) {
		return nil, nil, false
	}
	outputs := make(map[string]*Artifact, len(s.Outputs))
	for _, rec := range info.Artifacts {
		if !slices.Contains(s.Outputs, rec.Name) {
			return nil, nil, false
		}
		data, err := l.Load(key, rec.Name)
		if err != nil {
			return nil, nil, false
		}
		outputs[rec.Name] = &Artifact{
			Name: rec.Name, Tier: rec.Tier, Events: rec.Events, Data: data,
			digest: rec.Digest,
		}
	}
	return outputs, info.External, true
}

// Description returns the workflow's serializable preservation record:
// everything except the step implementations.
func (w *Workflow) Description() ([]byte, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return json.MarshalIndent(w, "", "  ")
}

// FromDescription parses a preserved workflow description. Step Run
// implementations must be re-bound (BindImpl) before execution.
func FromDescription(data []byte) (*Workflow, error) {
	var w Workflow
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("workflow: parsing description: %w", err)
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return &w, nil
}

// BindImpl attaches an implementation to the named step.
func (w *Workflow) BindImpl(step string, fn StepFunc) error {
	for i := range w.Steps {
		if w.Steps[i].Name == step {
			w.Steps[i].Run = fn
			return nil
		}
	}
	return fmt.Errorf("workflow %q: no step %q to bind", w.Name, step)
}
