package queryserve

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"daspos/internal/hepdata"
)

func TestStreamRecordCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := StreamRecord(&buf, testRecord(0), FormatCSV); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Pinned row order: comment header, column header, one row per point.
	if !strings.HasPrefix(lines[0], "# record ins1000000") {
		t.Fatalf("header: %q", lines[0])
	}
	var rows []string
	for _, l := range lines {
		if l != "" && !strings.HasPrefix(l, "#") {
			rows = append(rows, l)
		}
	}
	if rows[0] != "xlo,x,xhi,y,err_total" {
		t.Fatalf("columns: %q", rows[0])
	}
	if len(rows) != 3 {
		t.Fatalf("rows: %v", rows)
	}
	if rows[1] != "0,5,10,12.5,0.4" {
		t.Fatalf("row 1: %q", rows[1])
	}
	// Point with no uncertainties exports err_total 0, not empty.
	if rows[2] != "10,15,20,3.25,0" {
		t.Fatalf("row 2: %q", rows[2])
	}
}

func TestStreamRecordYAML(t *testing.T) {
	var buf bytes.Buffer
	if err := StreamRecord(&buf, testRecord(1), FormatYAML); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"record: ins1000001", "tables:", "- table: Table1", "reactions:", "- P P --> W+ X", "points:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("yaml missing %q in:\n%s", want, out)
		}
	}
	// Strings needing quoting are quoted: the headers carry brackets.
	if !strings.Contains(out, `x_header: "PT [GEV]"`) {
		t.Fatalf("bracketed header not quoted:\n%s", out)
	}
}

func TestStreamRecordJSONRoundTrips(t *testing.T) {
	r := testRecord(2)
	var buf bytes.Buffer
	if err := StreamRecord(&buf, r, FormatJSON); err != nil {
		t.Fatal(err)
	}
	var back hepdata.Record
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("stream output is not valid JSON: %v\n%s", err, buf.String())
	}
	if back.InspireID != r.InspireID || len(back.Tables) != len(r.Tables) {
		t.Fatalf("round trip: %+v", back)
	}
	if len(back.Tables[0].Points) != 2 {
		t.Fatalf("points lost: %+v", back.Tables[0])
	}
}

func TestExportEdgeCases(t *testing.T) {
	// Zero-width bin, asymmetric-only error, empty error list.
	r := &hepdata.Record{
		InspireID: "7",
		Title:     "edge",
		Tables: []hepdata.Table{{
			Name: "T",
			Points: []hepdata.Point{
				{X: 1, XLo: 1, XHi: 1, Y: 2, Errors: []hepdata.Uncertainty{{Label: "sys", Plus: 0.3, Minus: -0.1}}},
				{X: 2, XLo: 1.5, XHi: 2.5, Y: 0},
			},
		}},
	}
	for _, f := range []Format{FormatJSON, FormatCSV, FormatYAML} {
		var buf bytes.Buffer
		if err := StreamRecord(&buf, r, f); err != nil {
			t.Fatalf("format %s: %v", f, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("format %s wrote nothing", f)
		}
	}
	var buf bytes.Buffer
	if err := StreamRecord(&buf, r, FormatCSV); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "1,1,1,2,") {
		t.Fatalf("zero-width bin row missing:\n%s", buf.String())
	}
}

func TestParseFormat(t *testing.T) {
	for in, want := range map[string]Format{"": FormatJSON, "json": FormatJSON, "csv": FormatCSV, "yaml": FormatYAML} {
		got, err := ParseFormat(in)
		if err != nil || got != want {
			t.Fatalf("ParseFormat(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestExportEndpoint(t *testing.T) {
	srv, cs := newTestServer(t, 3)
	h := srv.Handler()

	w := doReq(t, h, "GET", "/records/ins1000000/export?format=csv", nil)
	if w.Code != 200 {
		t.Fatalf("export: %d %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
		t.Fatalf("content type: %q", ct)
	}
	etag := w.Header().Get("ETag")
	if etag == "" {
		t.Fatal("export has no validator")
	}
	reads := cs.reads.Load()
	// Conditional export revalidates from the index alone: 304, no body,
	// and no store read.
	w304 := doReq(t, h, "GET", "/records/ins1000000/export?format=csv", map[string]string{"If-None-Match": etag})
	if w304.Code != 304 || w304.Body.Len() != 0 {
		t.Fatalf("export 304: %d (%d bytes)", w304.Code, w304.Body.Len())
	}
	if cs.reads.Load() != reads {
		t.Fatal("export revalidation touched the store")
	}
	// Formats carry distinct validators.
	wj := doReq(t, h, "GET", "/records/ins1000000/export?format=json", nil)
	if wj.Header().Get("ETag") == etag {
		t.Fatal("csv and json exports share a validator")
	}
	if w := doReq(t, h, "GET", "/records/ins1000000/export?format=xml", nil); w.Code != 400 {
		t.Fatalf("bad format: %d", w.Code)
	}
}
