package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestOutputMatchesGolden runs the example and compares everything it
// prints with testdata/output.golden. After a deliberate change of output,
// rewrite the file with
//
//	go run ./examples/masterclass > examples/masterclass/testdata/output.golden
func TestOutputMatchesGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "output.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("output differs from testdata/output.golden:\n--- got\n%s--- want\n%s", got, want)
	}
}
