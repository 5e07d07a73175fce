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
//
// The two -answers goldens are the same commands run from this directory.
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
	// Answer files replace the built-in profiles.
	for golden, args := range map[string][]string{
		"report-answers.golden":  {"report", "-answers", "testdata/answers/h1.json"},
		"compare-answers.golden": {"compare", "-answers", "testdata/answers/h1.json", "-answers", "testdata/answers/zeus.json"},
	} {
		out.Reset()
		if err := run(args, &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		path := filepath.Join("testdata", golden)
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := out.String(); got != string(want) {
			t.Errorf("%v output differs from %s:\n--- got\n%s--- want\n%s", args, path, got, want)
		}
	}
	// report NAME filters the answers it was given.
	out.Reset()
	if err := run([]string{"report", "-answers", "testdata/answers/zeus.json", "-answers", "testdata/answers/h1.json", "H1"}, &out); err != nil {
		t.Fatal(err)
	}
	if want, _ := os.ReadFile(filepath.Join("testdata", "report-answers.golden")); out.String() != string(want) {
		t.Errorf("report H1 of two answer files printed\n%s\nwant report-answers.golden", out.String())
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

// TestUnknownNamesAreRefused: an unknown subcommand, an unknown profile,
// an argument that flag parsing would leave unread, and an answer file that
// is missing, is not JSON or is not a complete interview are errors naming
// what was refused, and nothing is printed.
func TestUnknownNamesAreRefused(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"bogus"}, `unknown subcommand "bogus" (want table1, appendix, report, compare)`},
		{[]string{"report", "Nobody"}, `no profile "Nobody"`},
		{[]string{"report", "-answers", "testdata/answers/h1.json", "Atlas"}, `no profile "Atlas"`},
		{[]string{"report", "Atlas", "-answers", "testdata/answers/h1.json"},
			`report: unexpected arguments ["-answers" "testdata/answers/h1.json"]`},
		{[]string{"compare", "Atlas"}, `compare: unexpected arguments ["Atlas"]`},
		{[]string{"compare", "-answers", "testdata/answers/h1.json", "-answers", "testdata/answers/none.json"},
			`open testdata/answers/none.json: no such file or directory`},
		{[]string{"report", "-answers", "testdata/answers/malformed.json"},
			`testdata/answers/malformed.json: interview: parsing: unexpected EOF`},
		{[]string{"compare", "-answers", "testdata/answers/invalid.json"},
			`testdata/answers/invalid.json: interview: H1: missing rating for Sharing/Access`},
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
