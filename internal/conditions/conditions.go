// Package conditions implements the conditions database: the versioned,
// interval-of-validity store of calibration and alignment constants that
// the paper singles out as the Reconstruction step's heaviest external
// dependency ("at least one and sometimes many different databases that
// store all manner of calibration constants, conditions data...").
//
// Two access modes mirror the difference the workshop recorded between
// experiments: service mode queries the live store per lookup (the
// database-access pattern of ATLAS/CMS/LHCb), while snapshot mode exports
// the constants valid for one run into a flat text file "that can easily
// be shipped around with the data" (the ALICE pattern). Experiment W4
// quantifies the trade: snapshots are faster per lookup and trivially
// preservable, the service sees tag updates immediately.
package conditions

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Payload is one set of named constants, e.g. an energy scale and offset.
type Payload map[string]float64

// clone returns an independent copy so callers cannot mutate stored state.
func (p Payload) clone() Payload {
	c := make(Payload, len(p))
	for k, v := range p {
		c[k] = v
	}
	return c
}

// IoV is a closed run interval [First, Last] for which a payload is valid.
type IoV struct {
	First, Last uint32
}

// Contains reports whether the run falls inside the interval.
func (iov IoV) Contains(run uint32) bool { return run >= iov.First && run <= iov.Last }

// entry pairs an interval with its payload inside one folder+tag.
type entry struct {
	iov     IoV
	payload Payload
}

// Errors returned by lookups.
var (
	ErrNoFolder = errors.New("conditions: no such folder")
	ErrNoTag    = errors.New("conditions: no such tag")
	ErrNoIoV    = errors.New("conditions: no payload valid for run")
)

// DB is the conditions store. It is safe for concurrent use: reconstruction
// jobs read while calibration jobs publish new tags.
type DB struct {
	mu sync.RWMutex
	// folders[folder][tag] holds interval entries sorted by First.
	folders map[string]map[string][]entry
}

// NewDB returns an empty conditions database.
func NewDB() *DB {
	return &DB{folders: make(map[string]map[string][]entry)}
}

// Store publishes a payload for a folder, tag, and validity interval.
// Overlapping intervals within the same tag are rejected: a tag must
// resolve every run to at most one payload, or reprocessing would not be
// reproducible.
func (db *DB) Store(folder, tag string, iov IoV, p Payload) error {
	if folder == "" || tag == "" {
		return fmt.Errorf("conditions: empty folder or tag")
	}
	if iov.Last < iov.First {
		return fmt.Errorf("conditions: inverted IoV [%d,%d]", iov.First, iov.Last)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	tags, ok := db.folders[folder]
	if !ok {
		tags = make(map[string][]entry)
		db.folders[folder] = tags
	}
	for _, e := range tags[tag] {
		if iov.First <= e.iov.Last && e.iov.First <= iov.Last {
			return fmt.Errorf("conditions: IoV [%d,%d] overlaps [%d,%d] in %s/%s",
				iov.First, iov.Last, e.iov.First, e.iov.Last, folder, tag)
		}
	}
	tags[tag] = append(tags[tag], entry{iov: iov, payload: p.clone()})
	sort.Slice(tags[tag], func(i, j int) bool { return tags[tag][i].iov.First < tags[tag][j].iov.First })
	return nil
}

// Lookup resolves the payload valid for a run under a folder and tag. This
// is the service-mode access path.
func (db *DB) Lookup(folder, tag string, run uint32) (Payload, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	tags, ok := db.folders[folder]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoFolder, folder)
	}
	entries, ok := tags[tag]
	if !ok {
		return nil, fmt.Errorf("%w: %q in folder %q", ErrNoTag, tag, folder)
	}
	// Binary search over the sorted, non-overlapping intervals.
	i := sort.Search(len(entries), func(i int) bool { return entries[i].iov.Last >= run })
	if i < len(entries) && entries[i].iov.Contains(run) {
		return entries[i].payload.clone(), nil
	}
	return nil, fmt.Errorf("%w: run %d in %s/%s", ErrNoIoV, run, folder, tag)
}

// View is a service-mode handle binding a database to one tag and run, so
// consumers (reconstruction, calibration monitors) can resolve folders
// without carrying tag/run plumbing. Unlike a Snapshot, every Lookup goes
// to the live store and sees newly published intervals.
type View struct {
	db  *DB
	tag string
	run uint32
}

// View returns a service-mode view of the database for one tag and run.
func (db *DB) View(tag string, run uint32) *View {
	return &View{db: db, tag: tag, run: run}
}

// Lookup resolves a folder through the live database.
func (v *View) Lookup(folder string) (Payload, error) {
	return v.db.Lookup(folder, v.tag, v.run)
}

// Snapshot is the flattened, single-run view of the database under one tag:
// the ALICE-style shippable constants file. It is immutable after creation.
type Snapshot struct {
	Tag      string
	Run      uint32
	payloads map[string]Payload
}

// Snapshot resolves every folder under the given tag for one run. Folders
// without that tag or without a valid interval are skipped — a snapshot
// captures what was available, and the consumer's Lookup reports gaps.
func (db *DB) Snapshot(tag string, run uint32) *Snapshot {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s := &Snapshot{Tag: tag, Run: run, payloads: make(map[string]Payload)}
	for folder, tags := range db.folders {
		entries, ok := tags[tag]
		if !ok {
			continue
		}
		for _, e := range entries {
			if e.iov.Contains(run) {
				s.payloads[folder] = e.payload.clone()
				break
			}
		}
	}
	return s
}

// Lookup returns the snapshot's payload for a folder.
func (s *Snapshot) Lookup(folder string) (Payload, error) {
	p, ok := s.payloads[folder]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoFolder, folder)
	}
	return p, nil
}

// Folders returns the sorted folder names captured in the snapshot.
func (s *Snapshot) Folders() []string {
	out := make([]string, 0, len(s.payloads))
	for f := range s.payloads {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// The snapshot text format, one folder per block:
//
//	CONDITIONS-SNAPSHOT 1
//	tag <tag>
//	run <run>
//	folder <name>
//	<key> <value>
//	...
//	end
//
// Keys are written sorted so two snapshots of the same state are
// byte-identical — snapshots are archived by content hash.

const snapshotMagic = "CONDITIONS-SNAPSHOT 1"

// WriteSnapshot serializes a snapshot to its archival text form.
func WriteSnapshot(w io.Writer, s *Snapshot) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, snapshotMagic)
	fmt.Fprintf(bw, "tag %s\n", s.Tag)
	fmt.Fprintf(bw, "run %d\n", s.Run)
	for _, folder := range s.Folders() {
		fmt.Fprintf(bw, "folder %s\n", folder)
		p := s.payloads[folder]
		keys := make([]string, 0, len(p))
		for k := range p {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(bw, "%s %.17g\n", k, p[k])
		}
		fmt.Fprintln(bw, "end")
	}
	return bw.Flush()
}

// Digest returns the SHA-256 of the snapshot's archival text form: the
// identity of the calibration's content, where Tag and Run only name it.
func (s *Snapshot) Digest() string {
	h := sha256.New()
	_ = WriteSnapshot(h, s) // a hash never fails a write
	return hex.EncodeToString(h.Sum(nil))
}

// ReadSnapshot parses a snapshot from its text form.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	if !sc.Scan() || strings.TrimSpace(sc.Text()) != snapshotMagic {
		return nil, fmt.Errorf("conditions: bad snapshot header")
	}
	s := &Snapshot{payloads: make(map[string]Payload)}
	var current Payload
	var currentName string
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "tag":
			if len(fields) != 2 {
				return nil, fmt.Errorf("conditions: bad tag line %q", line)
			}
			s.Tag = fields[1]
		case "run":
			if len(fields) != 2 {
				return nil, fmt.Errorf("conditions: bad run line %q", line)
			}
			run, err := strconv.ParseUint(fields[1], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("conditions: bad run %q: %w", fields[1], err)
			}
			s.Run = uint32(run)
		case "folder":
			if current != nil {
				return nil, fmt.Errorf("conditions: folder %q not terminated", currentName)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("conditions: bad folder line %q", line)
			}
			currentName = fields[1]
			current = make(Payload)
		case "end":
			if current == nil {
				return nil, fmt.Errorf("conditions: stray end")
			}
			s.payloads[currentName] = current
			current = nil
		default:
			if current == nil {
				return nil, fmt.Errorf("conditions: key outside folder: %q", line)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("conditions: bad key line %q", line)
			}
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return nil, fmt.Errorf("conditions: bad value in %q: %w", line, err)
			}
			current[fields[0]] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if current != nil {
		return nil, fmt.Errorf("conditions: folder %q not terminated", currentName)
	}
	if s.Tag == "" {
		return nil, fmt.Errorf("conditions: snapshot has no tag line")
	}
	return s, nil
}
