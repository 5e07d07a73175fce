package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSeed7MatchesGoldens renders the display at -seed 7 into a temp -out
// and compares the line it prints (the temp directory masked as <dir>) with
// testdata/seed7.golden and the SVG, byte for byte, with
// testdata/seed7.svg. After a deliberate change of output, rewrite both
// with
//
//	go run ./cmd/daspos-display -seed 7 -out cmd/daspos-display/testdata/seed7.svg
//
// and that line, its directory replaced by <dir>, in seed7.golden.
func TestSeed7MatchesGoldens(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-seed", "7", "-out", filepath.Join(dir, "display.svg")}, &out); err != nil {
		t.Fatal(err)
	}
	wantLine, err := os.ReadFile(filepath.Join("testdata", "seed7.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.ReplaceAll(out.String(), dir, "<dir>"); got != string(wantLine) {
		t.Errorf("printed %q, want %q", got, wantLine)
	}
	got, err := os.ReadFile(filepath.Join(dir, "display.svg"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "seed7.svg"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("SVG differs from testdata/seed7.svg:\n--- got\n%s\n--- want\n%s", got, want)
	}
}
