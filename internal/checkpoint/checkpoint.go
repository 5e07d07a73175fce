// Package checkpoint makes a whole pipeline run a durable, resumable
// unit: a journaled run ledger that records each workflow step's
// lifecycle (started → artifacts committed → done) in an append-only
// journal, with every artifact payload committed to a content-addressed
// object store via write-temp-then-rename before the journal line that
// announces it is appended.
//
// The DASPOS demand that an archived analysis chain stay re-executable
// years later is, day to day, a demand that it survive the mundane
// failures of long-running processing: a process killed mid-step, a torn
// write, a half-committed artifact. The ledger's commit protocol is
// ordered so that a crash at *any* instruction leaves a recoverable
// state:
//
//  1. the artifact payload is written to a temp file in objects/,
//     fsynced, renamed to its SHA-256 digest, and the directory fsynced —
//     cas.Dir's Write, the tree's one durable blob writer;
//  2. only then is the journal record describing it appended and the
//     journal fsynced.
//
// Replay therefore never trusts a record whose payload could be missing.
// The journal itself — replay, the torn-tail policy, the fsynced append
// and its kill points — is package journal's, shared with the RECAST
// request ledger and work queue.
//
// Steps are keyed by StepKey over (step name, config digest, input
// digests), so a resumed run only skips a step when the same code
// configuration ran over byte-identical inputs — and even then only
// after the recorded artifacts pass fixity (re-hash equals recorded
// digest). A checkpoint that fails fixity simply forces re-execution.
package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"sync"

	"daspos/internal/cas"
	"daspos/internal/journal"
)

// StepState is a step's recorded lifecycle position.
type StepState int

// Lifecycle states. A step that appears in the journal only via "start"
// was interrupted; only StepDone is skippable on resume.
const (
	StepUnknown StepState = iota
	StepStarted
	StepDone
)

// String renders the state for status reports.
func (s StepState) String() string {
	switch s {
	case StepStarted:
		return "started"
	case StepDone:
		return "done"
	default:
		return "unknown"
	}
}

// ArtifactRecord is the journal's description of one committed artifact.
// Digest doubles as the object-store file name.
type ArtifactRecord struct {
	Name   string `json:"name"`
	Tier   string `json:"tier"`
	Events int    `json:"events"`
	Bytes  int64  `json:"bytes"`
	Digest string `json:"digest"`
}

// StepInfo is one step's replayed ledger state.
type StepInfo struct {
	Step      string
	Key       string
	State     StepState
	Artifacts []ArtifactRecord
	// External is the step's external-dependency census, recorded on the
	// done line so resumed runs keep complete provenance.
	External []string
}

// journalRecord is one JSON line of the journal.
type journalRecord struct {
	Kind     string          `json:"kind"` // "start", "artifact", "done"
	Step     string          `json:"step"`
	Key      string          `json:"key"`
	Artifact *ArtifactRecord `json:"artifact,omitempty"`
	External []string        `json:"external,omitempty"`
}

// StepKey derives the ledger key identifying one step execution: the
// step's name, its configuration digest, and the digests of its inputs in
// declared order. A change to the name, the configuration or any input's
// bytes yields a different key, so a checkpoint of other inputs never
// satisfies a resumed run. The code that ran is not in the key: a rebuilt
// binary resumes from its predecessor's output (ROADMAP item 14).
func StepKey(step, configDigest string, inputDigests []string) string {
	h := sha256.New()
	fmt.Fprintf(h, "step=%s\nconfig=%s\n", step, configDigest)
	for _, d := range inputDigests {
		fmt.Fprintf(h, "input=%s\n", d)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Ledger is the durable run ledger: an append-only journal plus a
// content-addressed object store under one checkpoint directory. Safe for
// concurrent readers of the replayed state; appends are serialized.
type Ledger struct {
	dir     string
	journal *journal.Journal
	objects *cas.Dir

	mu    sync.Mutex
	steps map[string]*StepInfo
	order []string // keys in first-seen order, for status reports
}

const (
	journalName = "journal.log"
	objectsName = "objects"
)

// Open creates or recovers the ledger in dir: it opens the object store
// (which drops the temp objects a crash left) and replays the journal (see
// package journal for what a torn tail and a corrupt line do).
func Open(dir string) (*Ledger, error) {
	objects, err := cas.OpenDir(filepath.Join(dir, objectsName))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	l := &Ledger{dir: dir, objects: objects, steps: make(map[string]*StepInfo)}
	j, err := journal.Open(filepath.Join(dir, journalName), l.apply)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	l.journal = j
	return l, nil
}

// Close releases the journal handle. The ledger directory remains valid
// for a later Open.
func (l *Ledger) Close() error { return l.journal.Close() }

// Dir returns the checkpoint directory.
func (l *Ledger) Dir() string { return l.dir }

// SetKill installs a fault hook invoked at every instrumented instruction
// of the commit protocol: the journal's "journal.*" points and the object
// store's "object.*" points. The chaos tests arm it with faults.Killer to
// die at a seeded instruction; production runs leave it nil.
func (l *Ledger) SetKill(fn func(point string)) {
	l.journal.SetKill(fn)
	l.objects.SetKill(fn)
}

// apply folds one journal record into the step table: every replayed
// line at Open, and every appended record once it is durable.
func (l *Ledger) apply(rec journalRecord) error {
	if rec.Key == "" || rec.Step == "" {
		return fmt.Errorf("checkpoint: record without step/key")
	}
	info := l.steps[rec.Key]
	if info == nil {
		info = &StepInfo{Step: rec.Step, Key: rec.Key}
		l.steps[rec.Key] = info
		l.order = append(l.order, rec.Key)
	}
	switch rec.Kind {
	case "start":
		// A fresh start supersedes any previous lifecycle for the key:
		// re-execution after a fixity failure re-records from scratch.
		info.State = StepStarted
		info.Artifacts = nil
		info.External = nil
	case "artifact":
		if rec.Artifact == nil {
			return fmt.Errorf("checkpoint: artifact record without artifact")
		}
		info.Artifacts = append(info.Artifacts, *rec.Artifact)
	case "done":
		info.State = StepDone
		info.External = rec.External
	default:
		return fmt.Errorf("checkpoint: unknown record kind %q", rec.Kind)
	}
	return nil
}

// record journals one record and, once it is durable, folds it into the
// step table.
func (l *Ledger) record(rec journalRecord) error {
	if err := l.journal.Append(rec); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.apply(rec)
}

// Start records that a step execution began.
func (l *Ledger) Start(step, key string) error {
	return l.record(journalRecord{Kind: "start", Step: step, Key: key})
}

// Commit durably stores one artifact payload and journals it. The digest
// is computed here over the payload; a caller-supplied digest in rec must
// agree. The object store is content-addressed, so re-committing
// identical bytes is idempotent (the object is kept, its directory entry
// fsynced again) — but an existing object with other bytes (operator
// damage, bit rot) is overwritten with the fresh payload rather than
// trusted.
func (l *Ledger) Commit(step, key string, rec ArtifactRecord, data []byte) (ArtifactRecord, error) {
	digest := cas.Digest(data)
	if rec.Digest != "" && rec.Digest != digest {
		return rec, fmt.Errorf("checkpoint: artifact %q digest %s does not match payload %s", rec.Name, rec.Digest, digest)
	}
	rec.Digest = digest
	rec.Bytes = int64(len(data))
	if err := l.objects.Write(digest, data); err != nil {
		return rec, fmt.Errorf("checkpoint: %w", err)
	}
	if err := l.record(journalRecord{Kind: "artifact", Step: step, Key: key, Artifact: &rec}); err != nil {
		return rec, err
	}
	return rec, nil
}

// Done records that every artifact of the step is committed, with the
// step's external-dependency census for provenance on resume.
func (l *Ledger) Done(step, key string, external []string) error {
	return l.record(journalRecord{Kind: "done", Step: step, Key: key, External: external})
}

// Lookup returns the replayed state for a step key.
func (l *Ledger) Lookup(key string) (StepInfo, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	info, ok := l.steps[key]
	if !ok {
		return StepInfo{}, false
	}
	return copyInfo(info), true
}

// Status returns every step the ledger knows, in first-seen order — the
// run-status report of the pipeline executable.
func (l *Ledger) Status() []StepInfo {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]StepInfo, 0, len(l.order))
	for _, key := range l.order {
		out = append(out, copyInfo(l.steps[key]))
	}
	return out
}

func copyInfo(info *StepInfo) StepInfo {
	cp := *info
	cp.Artifacts = append([]ArtifactRecord(nil), info.Artifacts...)
	cp.External = append([]string(nil), info.External...)
	return cp
}

// Load reads an artifact payload back from the object store, verifying
// fixity: the bytes must hash to the recorded digest and match the
// recorded length. Any disagreement is a checkpoint the caller must not
// trust.
func (l *Ledger) Load(rec ArtifactRecord) ([]byte, error) {
	data, err := l.objects.Read(rec.Digest)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: artifact %q object missing: %w", rec.Name, err)
	}
	if int64(len(data)) != rec.Bytes {
		return nil, fmt.Errorf("checkpoint: artifact %q is %d bytes, recorded %d", rec.Name, len(data), rec.Bytes)
	}
	if got := cas.Digest(data); got != rec.Digest {
		return nil, fmt.Errorf("checkpoint: artifact %q fails fixity: object hashes to %s, recorded %s", rec.Name, got, rec.Digest)
	}
	return data, nil
}

// Verify re-hashes every artifact of a done step against its recorded
// digest. It returns an error when the step is not done or any artifact
// fails fixity — the signal that a resume must re-execute the step.
func (l *Ledger) Verify(key string) error {
	info, ok := l.Lookup(key)
	if !ok {
		return fmt.Errorf("checkpoint: no ledger entry for key %s", key)
	}
	if info.State != StepDone {
		return fmt.Errorf("checkpoint: step %q is %s, not done", info.Step, info.State)
	}
	for _, rec := range info.Artifacts {
		if _, err := l.Load(rec); err != nil {
			return err
		}
	}
	return nil
}

// ObjectPath returns where an artifact payload lives on disk — exposed
// for the chaos tests that deliberately damage objects.
func (l *Ledger) ObjectPath(digest string) string { return l.objects.Path(digest) }

// JournalPath returns the journal file location — exposed for the chaos
// tests that tear its final record.
func (l *Ledger) JournalPath() string { return l.journal.Path() }
