package hepdata_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"daspos/internal/hepdata"
	"daspos/internal/queryserve"
)

// TestCanonicalEncodingUnchanged pins the canonical record form against
// testdata/canonical: bodies and ETags written by the reflection encoder
// at d25c202, before AppendRecord replaced it. Each body must decode and
// re-encode to itself and digest to its recorded validator — a record's
// ETag is "identical on every node, across restarts" only while this
// holds, so a diff here is a format break, not a test to update.
func TestCanonicalEncodingUnchanged(t *testing.T) {
	bodies, err := filepath.Glob("testdata/canonical/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bodies) < 6 {
		t.Fatalf("found %d golden records, want at least 6", len(bodies))
	}
	for _, path := range bodies {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		etag, err := os.ReadFile(strings.TrimSuffix(path, ".json") + ".etag")
		if err != nil {
			t.Fatal(err)
		}
		rec, err := hepdata.DecodeRecord(want)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		got, err := hepdata.EncodeRecord(rec)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: canonical body changed:\n got %s\nwant %s", path, got, want)
		}
		gotTag, err := queryserve.RecordETag(rec)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if gotTag != strings.TrimSpace(string(etag)) {
			t.Errorf("%s: ETag %s, recorded %s", path, gotTag, strings.TrimSpace(string(etag)))
		}
	}
}
