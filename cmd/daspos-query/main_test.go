package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// scheduled matches what demo prints that depends on how its four readers
// were scheduled: the elapsed time, the counts of 304s, cache hits and
// coalesced fills (a read that finds a validator or a cached body its twin
// left moments before), and the hit rate they make.
var scheduled = regexp.MustCompile(`in \d+(\.\d+)?[µm]?s|(?m)^(\| (304 not modified|cache hits|coalesced fills) +\|) +\d+ \|$|rate: [\d.]+%`)

// mask replaces each scheduling-dependent figure with "*", keeping the
// table's column widths.
func mask(out string) string {
	return scheduled.ReplaceAllStringFunc(out, func(s string) string {
		switch {
		case strings.HasPrefix(s, "in "):
			return "in *"
		case strings.HasPrefix(s, "rate: "):
			return "rate: *%"
		}
		cell := strings.LastIndex(s[:len(s)-2], "|") + 1
		return s[:cell] + strings.Repeat(" ", len(s)-cell-3) + "* |"
	})
}

// TestDemoMatchesGolden runs demo over a small corpus and compares what it
// prints, scheduled figures masked, with testdata/demo.golden. After a
// deliberate change of output, replace the file with the masked output the
// failure prints.
func TestDemoMatchesGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"demo", "-records", "40", "-datasets", "12"}, &out); err != nil {
		t.Fatal(err)
	}
	got := mask(out.String())
	path := filepath.Join("testdata", "demo.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}

// TestServeAnswersEveryRouteAndDrains runs serve over a three-record
// corpus, and publishes a fourth, with a stand-in for the listen-and-drain loop. The stand-in sends
// one request per queryserve row of wire.golden to the handler serve hands
// it, then cancels the context serve runs under and waits for it: that is
// the drain's signal, and the read tier has nothing to close after it.
func TestServeAnswersEveryRouteAndDrains(t *testing.T) {
	id := demoRecord(11, 0).ID()
	fresh, err := json.Marshal(demoRecord(11, 3))
	if err != nil {
		t.Fatal(err)
	}
	// Refused publishes: a body that does not parse, a record that does
	// not validate, and a record already published.
	noTables := demoRecord(11, 4)
	noTables.Tables = nil
	twoNames := demoRecord(11, 5)
	twoNames.Tables = append(twoNames.Tables, twoNames.Tables[0])
	var refused [2][]byte
	for i, r := range []any{noTables, twoNames} {
		if refused[i], err = json.Marshal(r); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	orig := serve
	t.Cleanup(func() { serve = orig })
	served := false
	serve = func(sctx context.Context, addr string, h http.Handler, closeFn func() error) error {
		served = true
		if addr != "127.0.0.1:0" || closeFn != nil {
			t.Errorf("serve got address %q and a close hook %v, want 127.0.0.1:0 and none", addr, closeFn != nil)
		}
		hts := httptest.NewServer(h)
		defer hts.Close()
		for _, c := range []struct {
			method, path string
			body         []byte
			status       int
			want         string // in the response body
		}{
			{http.MethodGet, "/datasets?tier=AOD&limit=2", nil, http.StatusOK, "/AOD/"},
			{http.MethodGet, "/records?q=boson&limit=2", nil, http.StatusOK, id},
			{http.MethodGet, "/records/" + id, nil, http.StatusOK, `"inspire_id"`},
			{http.MethodGet, "/records/" + id + "/export?format=csv", nil, http.StatusOK, "PT [GEV]"},
			{http.MethodPost, "/records", fresh, http.StatusCreated, ""},
			{http.MethodPost, "/records", []byte("{bad"), http.StatusBadRequest,
				`{"error":"hepdata: parsing record: invalid character 'b' looking for beginning of object key string"}` + "\n"},
			{http.MethodPost, "/records", []byte(`{"year":"x"}`), http.StatusBadRequest,
				`{"error":"hepdata: parsing record: json: cannot unmarshal string into Go struct field Record.year of type int"}` + "\n"},
			{http.MethodPost, "/records", refused[0], http.StatusBadRequest,
				`{"error":"hepdata: record ` + noTables.ID() + ` has no tables"}` + "\n"},
			{http.MethodPost, "/records", refused[1], http.StatusBadRequest,
				`{"error":"hepdata: record ` + twoNames.ID() + ` has duplicate table \"` + twoNames.Tables[0].Name + `\""}` + "\n"},
			{http.MethodPost, "/records", fresh, http.StatusConflict,
				`{"error":"hepdata: record already submitted: ` + demoRecord(11, 3).ID() + `"}` + "\n"},
			{http.MethodGet, "/status", nil, http.StatusOK, `"records":4`},
		} {
			req, err := http.NewRequest(c.method, hts.URL+c.path, bytes.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := hts.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != c.status || !strings.Contains(string(body), c.want) ||
				resp.StatusCode >= 400 && string(body) != c.want {
				t.Errorf("%s %s = %d %.200s, want %d with %q", c.method, c.path, resp.StatusCode, body, c.status, c.want)
			}
		}
		cancel()
		<-sctx.Done()
		return nil
	}
	var out bytes.Buffer
	if err := run(ctx, []string{"serve", "-addr", "127.0.0.1:0", "-records", "3", "-datasets", "8"}, &out); err != nil {
		t.Fatal(err)
	}
	if !served {
		t.Fatal("serve was never called")
	}
	if want := "daspos-query: query front end on 127.0.0.1:0 (3 records, 8 datasets, "; !strings.HasPrefix(out.String(), want) {
		t.Fatalf("serve printed %q, want it to start %q", out.String(), want)
	}
}

// TestUnknownSubcommandIsRefused: run needs a subcommand it knows.
func TestUnknownSubcommandIsRefused(t *testing.T) {
	for args, want := range map[string]string{
		"":      "usage: daspos-query {serve|demo} [flags]",
		"bogus": `unknown subcommand "bogus"`,
	} {
		var out bytes.Buffer
		err := run(context.Background(), strings.Fields(args), &out)
		if err == nil || err.Error() != want || out.Len() != 0 {
			t.Errorf("run(%q) = %v after printing %q, want %q and nothing printed", args, err, out.String(), want)
		}
	}
}
