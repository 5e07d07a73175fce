// Package checkpoint makes a whole pipeline run a durable, resumable unit:
// the run directory is a directory archive (package archive) holding one
// package per finished workflow step — its artifacts, stored raw, and
// step.json, which records the step's name, its StepKey, the configuration
// and input digests the key is made from, its external census and its
// artifact records.
//
// Commit writes an artifact's blob; Done ingests the step, and the roots-log
// append is the commit point, so a crash anywhere leaves either a package
// whose every blob is durable or orphan blobs and a step that re-executes.
// A resumed run skips a step only when a package under the same key holds
// every declared output and each reads back through the archive's checked
// Fetch. Tiers are never deflated: at a ratio of 1.35 it is not worth the
// CPU (DESIGN.md, "Crash-safe runs: a run is an archive").
//
// A directory an earlier build wrote — journal.log of start/artifact/done
// lines over raw payloads in objects/ — is read, never written: Open adopts
// each of its done steps whose payloads verify.
package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"daspos/internal/archive"
	"daspos/internal/cas"
	"daspos/internal/datamodel"
	"daspos/internal/journal"
)

// ArtifactRecord describes one committed artifact; Name is its path in the
// step's package.
type ArtifactRecord struct {
	Name   string `json:"name"`
	Tier   string `json:"tier"`
	Events int    `json:"events"`
	Bytes  int64  `json:"bytes"`
	Digest string `json:"digest"`
}

// StepInfo is one finished step as its package records it.
type StepInfo struct {
	Step      string
	Key       string
	Artifacts []ArtifactRecord
	// External is the step's external-dependency census, kept so resumed
	// runs keep complete provenance.
	External []string
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

// Ledger is the durable run ledger: the archive in one checkpoint
// directory, and the index of its step packages by key. Safe for
// concurrent use.
type Ledger struct {
	*archive.Archive

	mu     sync.Mutex
	steps  map[string]step             // by key
	order  []string                    // keys in the order they were first indexed
	staged map[string][]ArtifactRecord // by key: stored by Commit, not yet ingested by Done
}

type step struct {
	pkg  string
	info StepInfo
}

// stepFile is the path of step.json in a step's package.
const stepFile = "step.json"

// stepRecord is step.json; Format is its version marker.
type stepRecord struct {
	Format    string           `json:"format"`
	Step      string           `json:"step"`
	Key       string           `json:"key"`
	Config    string           `json:"config,omitempty"`
	Inputs    []string         `json:"inputs,omitempty"`
	External  []string         `json:"external,omitempty"`
	Artifacts []ArtifactRecord `json:"artifacts"`
}

const stepFormat = "daspos-step/1"

// decodeStep reads step.json: a record of the current format that
// re-encodes to exactly its bytes, whose key and artifact digests are
// digests and whose artifact names are distinct payload paths.
func decodeStep(data []byte) (stepRecord, error) {
	var rec stepRecord
	err := json.Unmarshal(data, &rec)
	if again, _ := json.Marshal(rec); err != nil || !bytes.Equal(again, data) {
		return rec, fmt.Errorf("%s is not canonical", stepFile)
	}
	if rec.Format != stepFormat || rec.Step == "" || !cas.IsDigest(rec.Key) {
		return rec, fmt.Errorf("%s is not a %s record of a step and its key", stepFile, stepFormat)
	}
	names := make(map[string]bool, len(rec.Artifacts))
	for _, a := range rec.Artifacts {
		if a.Name == "" || a.Name == stepFile || names[a.Name] || !cas.IsDigest(a.Digest) {
			return rec, fmt.Errorf("%s artifact %.40q (digest %.80q) is not a distinct payload file", stepFile, a.Name, a.Digest)
		}
		names[a.Name] = true
	}
	return rec, nil
}

// Open creates or recovers the ledger in dir: it opens the archive there
// (see archive.Open for a damaged or lost roots log) and indexes each step
// package by its key — of two packages with one key, the later root wins.
// A step.json that does not decode, or records an artifact its package
// does not hold, fails Open naming the package.
func Open(dir string) (*Ledger, error) {
	a, err := archive.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	l := &Ledger{Archive: a, steps: make(map[string]step), staged: make(map[string][]ArtifactRecord)}
	for _, id := range a.Roots() {
		if err := l.index(id); err != nil {
			a.Close()
			return nil, fmt.Errorf("checkpoint: package %s: %w", id, err)
		}
	}
	if err := l.adopt(dir); err != nil {
		a.Close()
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return l, nil
}

// index reads the step.json of package id and makes the package the one
// its step's key resolves to; a package that is not a step's is skipped.
func (l *Ledger) index(id string) error {
	pkg, _ := l.Get(id)
	if pkg.Metadata.Provenance != stepFile {
		return nil
	}
	data, err := l.Fetch(id, stepFile)
	if err != nil {
		return err
	}
	rec, err := decodeStep(data)
	if err != nil {
		return err
	}
	for _, a := range rec.Artifacts {
		if f := pkg.File(a.Name); f == nil || f.Digest != a.Digest || f.Size != a.Bytes {
			return fmt.Errorf("artifact %q is not in the package as %s records it", a.Name, stepFile)
		}
	}
	l.put(id, rec)
	return nil
}

func (l *Ledger) put(id string, rec stepRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.steps[rec.Key]; !ok {
		l.order = append(l.order, rec.Key)
	}
	l.steps[rec.Key] = step{pkg: id, info: StepInfo{Step: rec.Step, Key: rec.Key, Artifacts: rec.Artifacts, External: rec.External}}
}

// Commit durably stores one artifact payload of the step under key, raw,
// for the Done that ingests the step. The digest is computed here over the
// payload; a caller-supplied digest in rec must agree. A blob that already
// holds other bytes (operator damage, bit rot) is replaced rather than
// trusted.
func (l *Ledger) Commit(key string, rec ArtifactRecord, data []byte) (ArtifactRecord, error) {
	digest := cas.Digest(data)
	if rec.Digest != "" && rec.Digest != digest {
		return rec, fmt.Errorf("checkpoint: artifact %q digest %s does not match payload %s", rec.Name, rec.Digest, digest)
	}
	if rec.Name == stepFile {
		return rec, fmt.Errorf("checkpoint: an artifact may not be named %s", stepFile)
	}
	rec.Digest, rec.Bytes = digest, int64(len(data))
	if err := l.Stage(digest, data); err != nil {
		return rec, fmt.Errorf("checkpoint: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	arts := slices.DeleteFunc(l.staged[key], func(a ArtifactRecord) bool { return a.Name == rec.Name })
	l.staged[key] = append(arts, rec)
	return rec, nil
}

// Done ingests a finished step — the artifacts committed under its key,
// with step.json recording the configuration and input digests the key is
// made from and the step's external-dependency census — as one package.
// The package of a step done before with the same bytes is already there.
func (l *Ledger) Done(stepName, configDigest string, inputDigests, external []string) error {
	return l.done(stepRecord{
		Format: stepFormat, Step: stepName, Key: StepKey(stepName, configDigest, inputDigests),
		Config: configDigest, Inputs: inputDigests, External: external,
	})
}

func (l *Ledger) done(rec stepRecord) error {
	l.mu.Lock()
	rec.Artifacts = l.staged[rec.Key]
	delete(l.staged, rec.Key)
	l.mu.Unlock()
	staged := make([]archive.File, 0, len(rec.Artifacts))
	level := datamodel.DPHEPLevel3 // analysis-level data; raw and reconstructed data are level 4
	for _, a := range rec.Artifacts {
		staged = append(staged, archive.File{Path: a.Name, Digest: a.Digest, Size: a.Bytes})
		if a.Tier == datamodel.TierRAW.String() || a.Tier == datamodel.TierRECO.String() {
			level = datamodel.DPHEPLevel4
		}
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	meta := archive.Metadata{Title: rec.Step, Creator: "daspos-workflow", Level: level, Provenance: stepFile}
	id, err := l.IngestStaged(meta, map[string][]byte{stepFile: data}, staged)
	if err != nil && !errors.Is(err, archive.ErrDuplicate) {
		return fmt.Errorf("checkpoint: step %q: %w", rec.Step, err)
	}
	l.put(id, rec)
	return nil
}

// Lookup returns the finished step recorded under a key.
func (l *Ledger) Lookup(key string) (StepInfo, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s, ok := l.steps[key]
	return copyInfo(s.info), ok
}

// Status returns every finished step the ledger holds, in the order its
// key was first indexed — the run-status report of the pipeline executable.
func (l *Ledger) Status() []StepInfo {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]StepInfo, 0, len(l.order))
	for _, key := range l.order {
		out = append(out, copyInfo(l.steps[key].info))
	}
	return out
}

func copyInfo(info StepInfo) StepInfo {
	info.Artifacts = append([]ArtifactRecord(nil), info.Artifacts...)
	info.External = append([]string(nil), info.External...)
	return info
}

// Load reads an artifact of the step under key back through the archive's
// checked Fetch. Any error is a checkpoint the caller must not trust.
func (l *Ledger) Load(key, name string) ([]byte, error) {
	l.mu.Lock()
	s, ok := l.steps[key]
	l.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("checkpoint: no step under key %s", key)
	}
	return l.Fetch(s.pkg, name)
}

// journalRecord is one line of the journal.log an earlier build wrote.
type journalRecord struct {
	Kind     string          `json:"kind"` // "start", "artifact", "done"
	Step     string          `json:"step"`
	Key      string          `json:"key"`
	Artifact *ArtifactRecord `json:"artifact,omitempty"`
	External []string        `json:"external,omitempty"`
}

// adopt commits and ingests each done step of dir/journal.log, whose
// payloads are raw files in dir/objects/, unless its key is indexed
// already: reopening adopts nothing twice. A step whose payloads fail
// fixity is left to re-execute. The files are only read, and a line whose
// digest is not a digest — a path, say — fails, naming the line.
func (l *Ledger) adopt(dir string) error {
	steps, done := make(map[string]*stepRecord), make(map[string]bool)
	var order []string
	err := journal.Replay(filepath.Join(dir, "journal.log"), func(rec journalRecord) error {
		if rec.Key == "" || rec.Step == "" {
			return fmt.Errorf("record without step/key")
		}
		if steps[rec.Key] == nil {
			order = append(order, rec.Key)
		}
		if rec.Kind == "start" || steps[rec.Key] == nil {
			// A fresh start supersedes any previous lifecycle for the key.
			steps[rec.Key], done[rec.Key] = &stepRecord{Format: stepFormat, Step: rec.Step, Key: rec.Key}, false
		}
		switch s := steps[rec.Key]; rec.Kind {
		case "start":
		case "artifact":
			if rec.Artifact == nil {
				return fmt.Errorf("artifact record without artifact")
			}
			if !cas.IsDigest(rec.Artifact.Digest) {
				return fmt.Errorf("artifact %q digest %.80q is not a digest", rec.Artifact.Name, rec.Artifact.Digest)
			}
			s.Artifacts = append(s.Artifacts, *rec.Artifact)
		case "done":
			s.External, done[rec.Key] = rec.External, true
		default:
			return fmt.Errorf("unknown record kind %q", rec.Kind)
		}
		return nil
	})
	if err != nil {
		return err
	}
next:
	for _, key := range order {
		if _, indexed := l.Lookup(key); indexed || !done[key] {
			continue
		}
		rec := *steps[key]
		for _, a := range rec.Artifacts {
			data, err := os.ReadFile(filepath.Join(dir, "objects", a.Digest))
			if err == nil {
				_, err = l.Commit(key, a, data)
			}
			if err != nil {
				delete(l.staged, key)
				continue next
			}
		}
		if err := l.done(rec); err != nil {
			return err
		}
	}
	return nil
}
