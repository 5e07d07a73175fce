package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// TestRunAndResumeMatchGoldens runs a small checkpointed chain, then
// resumes it from its ledger, and compares each output with a golden:
// testdata/run.golden, and testdata/resume.golden, where every step is
// restored from a checkpoint that passes fixity. The ledger's path and the
// stage table's scheduling-dependent columns are masked. After a
// deliberate change of output, rewrite both files with
//
//	go test ./cmd/daspos-pipeline -update-golden
func TestRunAndResumeMatchGoldens(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-events", "60", "-process", "drell-yan-z", "-pileup", "0.5", "-workers", "2", "-batch", "16", "-checkpoint-dir", dir}
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"run.golden", args},
		{"resume.golden", append(args, "-resume")},
	} {
		var out bytes.Buffer
		if err := run(context.Background(), c.args, &out); err != nil {
			t.Fatal(err)
		}
		got := mask(out.String(), dir)
		path := filepath.Join("testdata", c.golden)
		if *updateGolden {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("output differs from %s:\n--- got\n%s--- want\n%s", path, got, want)
		}
	}
}

// scheduled holds the stage table's columns that depend on how the
// goroutines were scheduled — Busy, a wall-clock measure, and the batch
// pool's counts — by their place in a row or rule split at its
// separators, with their headers.
var scheduled = map[int]string{7: "Busy", 8: "Peak batches", 9: "Recycled", 10: "Fresh"}

var stageTable = regexp.MustCompile(`(?m)^Event-flow stages .*\n(?:[+|].*\n)*`)

// mask replaces the ledger directory with <ledger> and narrows each
// scheduled column of the stage table to its header, every value masked
// to "*".
func mask(out, dir string) string {
	out = strings.ReplaceAll(out, dir, "<ledger>")
	return stageTable.ReplaceAllStringFunc(out, func(table string) string {
		lines := strings.SplitAfter(table, "\n")
		for i, line := range lines {
			sep := "|"
			if strings.HasPrefix(line, "+") {
				sep = "+"
			}
			cells := strings.Split(line, sep)
			for col, header := range scheduled {
				switch {
				case col >= len(cells):
				case strings.TrimSpace(cells[col]) == header:
					cells[col] = " " + header + " "
				case sep == "+":
					cells[col] = strings.Repeat("-", len(header)+2)
				default:
					cells[col] = fmt.Sprintf(" %*s ", len(header), "*")
				}
			}
			lines[i] = strings.Join(cells, sep)
		}
		return strings.Join(lines, "")
	})
}
