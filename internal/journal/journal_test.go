package journal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"daspos/internal/faults"
)

type rec struct {
	N    int    `json:"n"`
	Note string `json:"note,omitempty"`
}

// reopen opens the journal at path and returns it with every record the
// replay applied.
func reopen(t *testing.T, path string) (*Journal, []rec) {
	t.Helper()
	var got []rec
	j, err := Open(path, func(r rec) error { got = append(got, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j, got
}

func records(n int) []rec {
	out := make([]rec, n)
	for i := range out {
		out[i] = rec{N: i + 1, Note: strings.Repeat("x", i)}
	}
	return out
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "dir", "j.log") // Open creates the directory
	j, got := reopen(t, path)
	if len(got) != 0 || j.path != path {
		t.Fatalf("fresh journal: replayed %v at %s", got, j.path)
	}
	want := records(5)
	for _, r := range want {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal("second Close:", err)
	}
	if err := j.Append(rec{N: 6}); err == nil {
		t.Fatal("Append after Close accepted")
	}
	if _, got := reopen(t, path); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
	// One JSON line per record, nothing else: the on-disk format.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n"); len(lines) != 5 || lines[0] != `{"n":1}` || lines[1] != `{"n":2,"note":"x"}` {
		t.Fatalf("journal bytes:\n%s", data)
	}
}

// TestKillSweep kills the process at each of the three kill points of
// each of N appends and checks the whole recovery contract: the reopen
// replays exactly the durable prefix, appends continue on a clean line,
// and a second reopen truncates nothing and replays the same records.
func TestKillSweep(t *testing.T) {
	const n = 4
	all := records(n)
	// What a kill at each point leaves of the record being appended.
	points := []struct {
		name    string
		durable bool // the interrupted record survives the reopen
	}{
		{"journal.append", false}, // no byte written
		{"journal.torn", false},   // half a line: dropped and truncated away
		{"journal.sync", true},    // a complete line, merely not fsynced: the page cache of a live test keeps it
	}
	for k := 1; k <= n; k++ {
		for _, pt := range points {
			t.Run(fmt.Sprintf("%s-%d", pt.name, k), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "j.log")
				j, _ := reopen(t, path)
				killer := faults.NewKiller()
				killer.CrashAtPoint(pt.name, k)
				j.SetKill(killer.Hit)
				applied := 0
				killed := func() (killed bool) {
					defer func() {
						if r := recover(); r != nil {
							if _, ok := faults.AsKill(r); !ok {
								panic(r)
							}
							killed = true
						}
					}()
					for _, r := range all {
						if err := j.Append(r); err != nil {
							t.Fatal(err)
						}
						applied++
					}
					return false
				}()
				if !killed || applied != k-1 {
					t.Fatalf("kill at %s #%d: killed=%v after %d acknowledged appends", pt.name, k, killed, applied)
				}
				j.Close()

				want := append([]rec(nil), all[:k-1]...)
				if pt.durable {
					want = append(want, all[k-1])
				}
				re, got := reopen(t, path)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("reopen replayed %v, want the durable prefix %v", got, want)
				}
				// Every acknowledged record is there: state never ran ahead.
				if len(got) < applied {
					t.Fatalf("acknowledged %d appends, %d survived", applied, len(got))
				}
				size := fileSize(t, path)
				if err := re.Append(rec{N: 99}); err != nil {
					t.Fatal(err)
				}
				re.Close()
				_, got2 := reopen(t, path)
				if want2 := append(want, rec{N: 99}); !reflect.DeepEqual(got2, want2) {
					t.Fatalf("after append and second reopen: %v, want %v", got2, want2)
				}
				if fileSize(t, path) <= size {
					t.Fatal("second reopen truncated a clean journal")
				}
			})
		}
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

func TestTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	j, _ := reopen(t, path)
	for _, r := range records(3) {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := faults.TearFinalRecord(path); err != nil {
		t.Fatal(err)
	}
	if _, got := reopen(t, path); !reflect.DeepEqual(got, records(2)) {
		t.Fatalf("replayed %v after the tear, want the first two records", got)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := intact[:bytes.LastIndexByte(intact[:len(intact)-1], '\n')+1]; !bytes.Equal(data, want) {
		t.Fatalf("file after reopen:\n%q\nwant it cut back to the last durable record:\n%q", data, want)
	}
}

func TestJournalRejectsCorruption(t *testing.T) {
	open := func(content string, apply func(rec) error) error {
		path := filepath.Join(t.TempDir(), "j.log")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := Open(path, apply)
		if err == nil {
			j.Close()
			return nil
		}
		// A rejected journal is left exactly as found, for the operator.
		if data, _ := os.ReadFile(path); string(data) != content {
			t.Fatalf("rejected journal was modified: %q", data)
		}
		return err
	}
	accept := func(rec) error { return nil }
	if err := open("{\"n\":1}\n{broken\n{\"n\":3}\n", accept); err == nil || !strings.Contains(err.Error(), "line 2 corrupt") {
		t.Fatalf("malformed line mid-stream: %v", err)
	}
	// A malformed line that is complete is corruption even when it is last:
	// only a missing newline marks a crash tear.
	if err := open("{\"n\":1}\n{broken\n", accept); err == nil {
		t.Fatal("malformed complete final line accepted")
	}
	// A record the owner rejects fails the open with its line number.
	err := open("{\"n\":1}\n{\"n\":2}\n", func(r rec) error {
		if r.N == 2 {
			return fmt.Errorf("no such step")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "line 2: no such step") {
		t.Fatalf("owner rejection: %v", err)
	}
	// Blank lines are not records.
	if err := open("{\"n\":1}\n\n  \n{\"n\":2}\n", accept); err != nil {
		t.Fatalf("blank lines: %v", err)
	}
}

// FuzzReplay feeds arbitrary bytes to Open as a journal file: it must
// never panic, and when it accepts the file, what it keeps is a prefix of
// the input ending on a line boundary, and opening that again keeps all
// of it and replays the same records.
func FuzzReplay(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("{\"n\":1}\n{\"n\":2,\"note\":\"x\"}\n"))
	f.Add([]byte("{\"n\":1}\n{\"n\":2,\"no"))
	f.Add([]byte("{\"n\":1}\n{broken\n{\"n\":3}\n"))
	f.Add([]byte("\n\n{\"n\":1}\r\n"))
	f.Add([]byte("null\n[]\n{\"n\":\"x\"}\n"))
	f.Fuzz(func(t *testing.T, input []byte) {
		path := filepath.Join(t.TempDir(), "j.log")
		if err := os.WriteFile(path, input, 0o644); err != nil {
			t.Fatal(err)
		}
		var first []rec
		j, err := Open(path, func(r rec) error { first = append(first, r); return nil })
		if err != nil {
			return // rejected loudly; TestJournalRejectsCorruption covers what that means
		}
		j.Close()
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(input, kept) || (len(kept) > 0 && kept[len(kept)-1] != '\n') {
			t.Fatalf("kept %q of %q: not a line-aligned prefix", kept, input)
		}
		if bytes.IndexByte(input[len(kept):], '\n') >= 0 {
			t.Fatalf("dropped a complete line: kept %q of %q", kept, input)
		}
		var second []rec
		j2, err := Open(path, func(r rec) error { second = append(second, r); return nil })
		if err != nil {
			t.Fatalf("reopen of an accepted journal failed: %v", err)
		}
		j2.Close()
		if again, _ := os.ReadFile(path); !bytes.Equal(again, kept) {
			t.Fatalf("reopen changed the file: %q → %q", kept, again)
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("reopen replayed %v, first open %v", second, first)
		}
	})
}

// TestReplayLeavesTheFileAlone: Replay is Open's read half for a file that
// is evidence, not state — it applies what Open would, skips a torn tail
// without cutting it away, refuses corruption the same way, and for a
// missing file creates nothing.
func TestReplayLeavesTheFileAlone(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "old.log")
	log := `{"n":1}` + "\n" + `{"n":2,"note":"x"}` + "\n" + `{"n":3,"no`
	if err := os.WriteFile(path, []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	var got []rec
	if err := Replay(path, func(r rec) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if want := records(2); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != log {
		t.Fatalf("Replay changed the file: %q %v", data, err)
	}
	if err := os.WriteFile(path, []byte("not json\n"+log), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Replay(path, func(rec) error { return nil }); err == nil {
		t.Fatal("mid-stream corruption replayed silently")
	}
	missing := filepath.Join(dir, "never", "written.log")
	if err := Replay(missing, func(rec) error { t.Fatal("applied a record of no file"); return nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Dir(missing)); !os.IsNotExist(err) {
		t.Fatalf("Replay of a missing file created its directory: %v", err)
	}
}
