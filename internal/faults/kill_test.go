package faults

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// hitUntilKilled drives the killer and reports how many hits ran before
// the injected death (0 if it never fired within limit).
func hitUntilKilled(k *Killer, limit int) (diedAt int, point string) {
	defer func() {
		if r := recover(); r != nil {
			kill, ok := AsKill(r)
			if !ok {
				panic(r)
			}
			diedAt = kill.Hit
			point = kill.Point
		}
	}()
	for i := 0; i < limit; i++ {
		k.Hit("op-" + string(rune('a'+i%3)))
	}
	return 0, ""
}

func TestKillerCrashAfterN(t *testing.T) {
	k := NewKiller()
	k.CrashAfterN(5)
	diedAt, _ := hitUntilKilled(k, 100)
	if diedAt != 5 {
		t.Fatalf("died at hit %d, want 5", diedAt)
	}
	if k.Hits() != 5 {
		t.Fatalf("hits = %d, want 5", k.Hits())
	}
	// The schedule is one-shot: the survivor keeps running.
	if diedAt, _ := hitUntilKilled(k, 50); diedAt != 0 {
		t.Fatalf("disarmed killer fired again at %d", diedAt)
	}
}

func TestKillerCrashAfterNCountsFromNow(t *testing.T) {
	k := NewKiller()
	for i := 0; i < 7; i++ {
		k.Hit("warmup")
	}
	k.CrashAfterN(3)
	diedAt, _ := hitUntilKilled(k, 50)
	if diedAt != 10 {
		t.Fatalf("died at global hit %d, want 10 (7 warmup + 3)", diedAt)
	}
}

func TestKillerCrashAtPoint(t *testing.T) {
	k := NewKiller()
	k.CrashAtPoint("op-b", 2)
	diedAt, point := hitUntilKilled(k, 100)
	if point != "op-b" {
		t.Fatalf("died at point %q, want op-b", point)
	}
	// op sequence cycles a,b,c: the 2nd op-b is global hit 5.
	if diedAt != 5 {
		t.Fatalf("died at hit %d, want 5", diedAt)
	}
}

func TestKillerDisarmedCounts(t *testing.T) {
	k := NewKiller()
	if diedAt, _ := hitUntilKilled(k, 42); diedAt != 0 {
		t.Fatalf("disarmed killer fired at %d", diedAt)
	}
	if k.Hits() != 42 {
		t.Fatalf("hits = %d, want 42", k.Hits())
	}
}

func TestTearFinalRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	lines := "{\"first\":1}\n{\"second\":2}\n{\"third-record\":3}\n"
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := TearFinalRecord(path); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	got := string(data)
	if !strings.HasPrefix(got, "{\"first\":1}\n{\"second\":2}\n") {
		t.Fatalf("earlier records damaged: %q", got)
	}
	tail := strings.TrimPrefix(got, "{\"first\":1}\n{\"second\":2}\n")
	if tail == "" || strings.Contains(tail, "\n") {
		t.Fatalf("final record not torn mid-line: %q", tail)
	}
	if len(tail) >= len("{\"third-record\":3}") {
		t.Fatalf("final record not shortened: %q", tail)
	}

	// An empty journal has nothing to tear.
	empty := filepath.Join(t.TempDir(), "empty")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := TearFinalRecord(empty); err == nil {
		t.Fatal("tearing an empty journal succeeded")
	}
}
