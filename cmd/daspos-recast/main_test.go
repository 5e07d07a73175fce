package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestDemoMatchesGolden runs `daspos-recast demo` with its default model
// and compares everything it prints with testdata/demo.golden. After a
// deliberate change of output, rewrite the file with
//
//	go run ./cmd/daspos-recast demo > cmd/daspos-recast/testdata/demo.golden
func TestDemoMatchesGolden(t *testing.T) {
	var out bytes.Buffer
	if err := demo(&out, nil); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "demo.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("output differs from testdata/demo.golden:\n--- got\n%s--- want\n%s", got, want)
	}
}
