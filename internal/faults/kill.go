package faults

import (
	"bytes"
	"fmt"
	"os"
	"sync"
)

// Deterministic kill points: the process-death half of the fault model.
// The flaky wrappers in this package model operations that *fail and
// report it*; a kill models an operation that never returns at all — the
// OOM-kill, the power cut, the preempted batch node mid-fsync. A Killer
// counts instrumented instruction points (the checkpoint ledger's commit
// protocol exposes one per durable instruction) and, at the scheduled
// hit, panics with *Kill, unwinding the run exactly where a real SIGKILL
// would have stopped it. Crash-storm tests recover the panic at the top
// of the run, reopen the checkpoint directory, and resume — the in-test
// equivalent of restarting the pipeline binary.

// Kill is the panic value of an injected process death.
type Kill struct {
	// Point names the instrumented instruction that was executing.
	Point string
	// Hit is the 1-based global hit count at which the kill fired.
	Hit int
}

// Error renders the kill for logs; Kill travels as a panic value, not an
// error return, because a killed process returns nothing.
func (k *Kill) Error() string {
	return fmt.Sprintf("faults: killed at hit %d (%s)", k.Hit, k.Point)
}

// AsKill reports whether a recovered panic value is an injected kill.
// Any other panic should be re-raised by the caller.
func AsKill(r any) (*Kill, bool) {
	k, ok := r.(*Kill)
	return k, ok
}

// Killer schedules deterministic process deaths at instrumented
// instruction points. The zero schedule never fires, so a disarmed
// Killer doubles as a hit counter for sizing a crash storm. Safe for
// concurrent use.
type Killer struct {
	mu      sync.Mutex
	hits    int
	crashAt int            // global hit number to die at; 0 = disarmed
	atPoint map[string]int // per-point hit number to die at
}

// NewKiller returns a disarmed killer.
func NewKiller() *Killer {
	return &Killer{atPoint: make(map[string]int)}
}

// CrashAfterN arms the killer to die at the nth Hit from now, whatever
// point that lands on — the "kill the run at instruction N" schedule the
// crash storm sweeps. n < 1 disarms.
func (k *Killer) CrashAfterN(n int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if n < 1 {
		k.crashAt = 0
		return
	}
	k.crashAt = k.hits + n
}

// CrashAtPoint arms the killer to die at the nth future hit of one named
// point (say the 2nd "journal.torn"), for targeted torn-write drills.
func (k *Killer) CrashAtPoint(point string, n int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if n < 1 {
		delete(k.atPoint, point)
		return
	}
	k.atPoint[point] = n
}

// Hit registers one instrumented instruction. When the schedule says so,
// it panics with *Kill instead of returning — injected process death.
func (k *Killer) Hit(point string) {
	k.mu.Lock()
	k.hits++
	hit := k.hits
	die := k.crashAt != 0 && hit >= k.crashAt
	if n, ok := k.atPoint[point]; ok {
		if n <= 1 {
			delete(k.atPoint, point)
			die = true
		} else {
			k.atPoint[point] = n - 1
		}
	}
	if die {
		k.crashAt = 0
	}
	k.mu.Unlock()
	if die {
		panic(&Kill{Point: point, Hit: hit})
	}
}

// Hits returns the total instrumented instructions observed — run once
// disarmed to learn how many kill points a workload exposes.
func (k *Killer) Hits() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.hits
}

// TearFinalRecord truncates a newline-delimited journal file so its last
// record survives only up to its midpoint, with no trailing newline —
// exactly what a crash halfway through the final append leaves behind.
// Replay must drop the torn record and keep everything before it.
func TearFinalRecord(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("faults: tearing final record: %w", err)
	}
	// Strip the trailing newline, then find where the last record starts.
	end := len(data)
	for end > 0 && data[end-1] == '\n' {
		end--
	}
	if end == 0 {
		return fmt.Errorf("faults: %s has no record to tear", path)
	}
	start := bytes.LastIndexByte(data[:end], '\n') + 1
	torn := start + (end-start)/2
	return os.Truncate(path, int64(torn))
}
