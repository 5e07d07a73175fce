package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// matchesGolden runs the command with args and compares everything it
// prints with testdata/<golden>. After a deliberate change of output,
// rewrite the file with the command line redirected into it, as in
//
//	go run ./cmd/daspos-recast demo > cmd/daspos-recast/testdata/demo.golden
func matchesGolden(t *testing.T, golden string, args ...string) {
	t.Helper()
	var out bytes.Buffer
	if err := run(context.Background(), args, &out); err != nil {
		t.Fatalf("%s: %v", args, err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", golden))
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("%s: output differs from testdata/%s:\n--- got\n%s--- want\n%s", args, golden, got, want)
	}
}

// TestDemoMatchesGolden runs `daspos-recast demo` with its default model.
func TestDemoMatchesGolden(t *testing.T) {
	matchesGolden(t, "demo.golden", "demo")
}

// TestScanMatchesGoldens runs `daspos-recast scan` with its defaults on
// each back end. Both goldens were written by the build whose scan ran in
// process, before every request went through the front door.
func TestScanMatchesGoldens(t *testing.T) {
	matchesGolden(t, "scan.golden", "scan")
	matchesGolden(t, "scan-fullsim.golden", "scan", "-backend", "fullsim")
}

// TestUnknownSubcommandIsRefused: run needs a subcommand it knows, and
// main exits 2 on the refusal.
func TestUnknownSubcommandIsRefused(t *testing.T) {
	for _, args := range [][]string{nil, {"bogus"}} {
		var out bytes.Buffer
		if err := run(context.Background(), args, &out); !errors.Is(err, errUsage) || out.Len() != 0 {
			t.Errorf("run(%q) = %v after printing %q, want the usage refusal and nothing printed", args, err, out.String())
		}
	}
}

// exchange sends one request to url, with the experiment's role header
// when experiment is set, and returns the answer's status and body.
func exchange(t *testing.T, method, url, body string, experiment bool) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if experiment {
		req.Header.Set("X-Recast-Role", "experiment")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestServeAnswersEveryRouteAndDrains runs serve on the bridge back end
// with a stand-in for the listen-and-drain loop. The stand-in sends one
// request per recast row of wire.golden to the handler serve hands it,
// waits for the submitted request to finish, then calls the drain hook as
// the loop does once the last request is answered. A second run over the
// same -journal-dir must then answer GET /requests/{id} with the body the
// first run ended on: the restart loses nothing.
func TestServeAnswersEveryRouteAndDrains(t *testing.T) {
	dir := t.TempDir()
	args := []string{"serve", "-addr", "127.0.0.1:0", "-backend", "bridge", "-journal-dir", dir}
	orig := serve
	t.Cleanup(func() { serve = orig })

	var id string
	var done []byte
	serve = func(_ context.Context, addr string, h http.Handler, drain func() error) error {
		if addr != "127.0.0.1:0" {
			t.Errorf("serve got address %q, want 127.0.0.1:0", addr)
		}
		hts := httptest.NewServer(h)
		defer hts.Close()
		code, body := exchange(t, http.MethodPost, hts.URL+"/requests",
			`{"analysis":"GPD_2013_DIMUON_HIGHMASS","requester":"x","model":{"process":"zprime","mass_gev":1000,"events":30,"seed":7}}`, false)
		var req struct{ ID, Status string }
		if err := json.Unmarshal(body, &req); code != http.StatusAccepted || err != nil || req.Status != "approved" {
			t.Fatalf("POST /requests = %d %s, want 202 and the request approved on arrival", code, body)
		}
		id = req.ID
		// Approval on arrival leaves the experiment nothing to approve.
		if code, body := exchange(t, http.MethodPost, hts.URL+"/requests/"+id+"/approve", "", true); code != http.StatusConflict {
			t.Errorf("POST /requests/%s/approve = %d %s, want 409", id, code, body)
		}
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			code, body := exchange(t, http.MethodGet, hts.URL+"/requests/"+id, "", false)
			if code != http.StatusOK {
				t.Fatalf("GET /requests/%s = %d %s", id, code, body)
			}
			if strings.Contains(string(body), `"status":"done"`) {
				done = body
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("request %s never finished: %s", id, body)
			}
		}
		if code, body := exchange(t, http.MethodGet, hts.URL+"/status", "", false); code != http.StatusOK ||
			!strings.Contains(string(body), `"admitted":1`) || !strings.Contains(string(body), `"journal_ok":true`) {
			t.Errorf("GET /status = %d %s, want 200 with one request admitted and the journal ok", code, body)
		}
		return drain()
	}
	if err := run(context.Background(), args, io.Discard); err != nil {
		t.Fatal(err)
	}

	reopened := false
	serve = func(_ context.Context, _ string, h http.Handler, drain func() error) error {
		reopened = true
		hts := httptest.NewServer(h)
		defer hts.Close()
		if code, body := exchange(t, http.MethodGet, hts.URL+"/requests/"+id, "", false); code != http.StatusOK || !bytes.Equal(body, done) {
			t.Errorf("after the restart GET /requests/%s = %d %s, want 200 %s", id, code, body, done)
		}
		return drain()
	}
	if err := run(context.Background(), args, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !reopened {
		t.Fatal("the second run never served")
	}
}
