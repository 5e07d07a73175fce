// Package journal is the one append-only journal every durable DASPOS
// component writes: the checkpoint ledger, the RECAST request ledger and a
// directory archive's package index.
// A journal is a file of JSON lines, one record per line, and the package
// owns the whole protocol around it:
//
//   - Open replays every complete line through the owner's apply
//     function. A final line without its newline is what a crash
//     mid-append leaves; it is dropped and the file is truncated back to
//     the last durable record, so the next append starts on a clean
//     line. A complete line that does not decode, or that apply rejects,
//     is corruption and fails Open loudly.
//   - Append marshals one record, writes it and fsyncs before it
//     returns. The owner folds a record into memory only after Append
//     returned nil: state never runs ahead of the disk.
//   - Three kill points — "journal.append" (before any byte),
//     "journal.torn" (record half-written) and "journal.sync" (written,
//     not yet durable) — are the instructions at which the chaos suites
//     kill the process, behind one SetKill hook.
package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Journal is an open journal file. Safe for concurrent use: appends are
// serialized, each one durable before the next begins.
type Journal struct {
	path string

	mu   sync.Mutex
	f    *os.File // nil once closed
	kill func(point string)
}

// Open creates or recovers the journal at path (and its directory),
// decoding each complete line into a T and handing it to apply; errors
// name the 1-based line. See the package comment for the torn-tail and
// corruption policy.
func Open[T any](path string, apply func(rec T) error) (*Journal, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("journal: creating directory of %s: %w", path, err)
	}
	valid, size, err := replay(path, apply)
	if err != nil {
		return nil, err
	}
	if valid < size {
		if err := os.Truncate(path, int64(valid)); err != nil {
			return nil, fmt.Errorf("journal: truncating torn tail of %s: %w", path, err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: opening %s for append: %w", path, err)
	}
	return &Journal{path: path, f: f}, nil
}

// Replay is the read half of Open for a journal that is only ever read
// again (a file an earlier layout wrote): same decoding, same corruption
// policy, but a torn tail is skipped where it lies and the file is neither
// created, truncated nor opened for writing. A missing file replays nothing.
func Replay[T any](path string, apply func(rec T) error) error {
	_, _, err := replay(path, apply)
	return err
}

// replay hands every complete line of path to apply and reports how many
// leading bytes held complete lines, and the file's size.
func replay[T any](path string, apply func(rec T) error) (valid, size int, err error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return 0, 0, fmt.Errorf("journal: reading %s: %w", path, err)
	}
	lineNo := 0
	for valid < len(data) {
		nl := bytes.IndexByte(data[valid:], '\n')
		if nl < 0 {
			break // torn tail: the crash interrupted the final append
		}
		lineNo++
		if line := bytes.TrimSpace(data[valid : valid+nl]); len(line) > 0 {
			var rec T
			if err := json.Unmarshal(line, &rec); err != nil {
				return 0, 0, fmt.Errorf("journal: %s line %d corrupt: %w", path, lineNo, err)
			}
			if err := apply(rec); err != nil {
				return 0, 0, fmt.Errorf("journal: %s line %d: %w", path, lineNo, err)
			}
		}
		valid += nl + 1
	}
	return valid, len(data), nil
}

// SetKill installs the fault hook invoked at each kill point. The chaos
// tests arm it with faults.Killer; production leaves it nil.
func (j *Journal) SetKill(fn func(point string)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.kill = fn
}

// Append durably appends one record as a JSON line. The write is split
// at the midpoint so an injected kill can leave a torn record.
func (j *Journal) Append(rec any) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: encoding record for %s: %w", j.path, err)
	}
	line = append(line, '\n')
	half := len(line) / 2
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("journal: %s is closed", j.path)
	}
	j.killLocked("journal.append")
	if _, err := j.f.Write(line[:half]); err != nil { //daspos:lock-ok — j.mu is what keeps two appenders' half-lines from interleaving
		return fmt.Errorf("journal: appending to %s: %w", j.path, err)
	}
	j.killLocked("journal.torn")
	if _, err := j.f.Write(line[half:]); err != nil { //daspos:lock-ok — same record, same critical section
		return fmt.Errorf("journal: appending to %s: %w", j.path, err)
	}
	j.killLocked("journal.sync")
	if err := j.f.Sync(); err != nil { //daspos:lock-ok — the fsync is the write barrier the journal exists for; convoying here is the contract
		return fmt.Errorf("journal: fsync of %s: %w", j.path, err)
	}
	return nil
}

func (j *Journal) killLocked(point string) {
	if j.kill != nil {
		j.kill(point)
	}
}

// Close releases the file handle; the file stays valid for a later Open.
// Closing twice is harmless, and an Append after Close fails.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close() //daspos:lock-ok — j.mu excludes in-flight Appends while the handle dies
	j.f = nil
	return err
}
