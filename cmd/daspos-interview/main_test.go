package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestSubcommandsMatchGoldens runs each subcommand and compares all it
// prints with testdata/<subcommand>.golden. After a deliberate change of
// output, rewrite a file with
//
//	go run ./cmd/daspos-interview report > cmd/daspos-interview/testdata/report.golden
func TestSubcommandsMatchGoldens(t *testing.T) {
	for _, cmd := range []string{"table1", "appendix", "report", "compare"} {
		var out bytes.Buffer
		if err := run([]string{cmd}, &out); err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
		path := filepath.Join("testdata", cmd+".golden")
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := out.String(); got != string(want) {
			t.Errorf("%s output differs from %s:\n--- got\n%s--- want\n%s", cmd, path, got, want)
		}
	}
	// No subcommand is compare.
	var out bytes.Buffer
	if err := run(nil, &out); err != nil {
		t.Fatal(err)
	}
	if want, _ := os.ReadFile(filepath.Join("testdata", "compare.golden")); out.String() != string(want) {
		t.Errorf("no subcommand printed\n%s\nwant compare's output", out.String())
	}
	// A named report is that profile's section of the whole report.
	out.Reset()
	if err := run([]string{"report", "Atlas"}, &out); err != nil {
		t.Fatal(err)
	}
	all, _ := os.ReadFile(filepath.Join("testdata", "report.golden"))
	if start := bytes.Index(all, []byte("=== Atlas ")); start < 0 || !bytes.HasPrefix(all[start:], out.Bytes()) ||
		!bytes.HasPrefix(all[start+out.Len():], []byte("=== CMS ")) {
		t.Errorf("report Atlas printed\n%s\nwant the Atlas section of report.golden", out.String())
	}
}

// TestUnknownNamesAreRefused: an unknown subcommand and an unknown profile
// are errors, and nothing is printed.
func TestUnknownNamesAreRefused(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"bogus"}, `unknown subcommand "bogus" (want table1, appendix, report, compare)`},
		{[]string{"report", "Nobody"}, `no profile "Nobody"`},
	} {
		var out bytes.Buffer
		err := run(c.args, &out)
		if err == nil || err.Error() != c.want {
			t.Errorf("%v: err = %v, want %q", c.args, err, c.want)
		}
		if out.Len() != 0 {
			t.Errorf("%v printed %q", c.args, out.String())
		}
	}
}
