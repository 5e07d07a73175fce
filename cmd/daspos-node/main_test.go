package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"daspos/internal/cas"
	"daspos/internal/node"
)

// served is what run handed the listen-and-drain loop.
type served struct {
	addr  string
	h     http.Handler
	drain func() error
}

// runNode runs the command with args, capturing what it hands serve in
// place of listening, and returns that with everything it logged.
func runNode(t *testing.T, args ...string) (served, *bytes.Buffer, error) {
	t.Helper()
	var got served
	orig := serve
	t.Cleanup(func() { serve = orig })
	serve = func(_ context.Context, addr string, h http.Handler, drain func() error) error {
		got = served{addr, h, drain}
		return nil
	}
	var out bytes.Buffer
	err := run(context.Background(), args, &out)
	return got, &out, err
}

// TestMissingIDIsRefused: without -id the node does not start; it says
// why, prints its usage and exits 2.
func TestMissingIDIsRefused(t *testing.T) {
	got, out, err := runNode(t, "-listen", "127.0.0.1:0")
	if !errors.Is(err, errUsage) {
		t.Fatalf("run = %v, want the usage refusal", err)
	}
	if got.h != nil {
		t.Fatal("a node without an identity was served")
	}
	if !strings.HasPrefix(out.String(), "daspos-node: missing required -id\nUsage of daspos-node:\n") ||
		!strings.Contains(out.String(), "-listen string") {
		t.Fatalf("refusal printed\n%s", out)
	}
}

// TestServeAnswersEveryRouteAndReportsTheDrain sends one request per node row of
// wire.golden to the handler run serves, then runs the drain hook: it
// names the node and the blobs it still holds.
func TestServeAnswersEveryRouteAndReportsTheDrain(t *testing.T) {
	got, out, err := runNode(t, "-id", "site-a", "-listen", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if got.addr != "127.0.0.1:0" || out.String() != "daspos-node: node site-a serving on 127.0.0.1:0\n" {
		t.Fatalf("served on %q, logged %q", got.addr, out)
	}
	hts := httptest.NewServer(got.h)
	defer hts.Close()
	blob := func(payload string) (string, []byte) {
		backend := cas.NewShardedBackend(1)
		digest, err := cas.NewStoreWith(backend).Put([]byte(payload))
		if err != nil {
			t.Fatal(err)
		}
		comp, _, err := backend.GetBlob(digest)
		if err != nil {
			t.Fatal(err)
		}
		return digest, comp
	}
	// frame is one blob's frame of a blob-list body.
	frame := func(digest string, stored []byte) []byte {
		return append(node.AppendFrameHeader(nil, digest, len(stored)), stored...)
	}
	kept, keptBody := blob("kept")
	gone, goneBody := blob("gone")
	for _, c := range []struct {
		method, path string
		body         []byte
		status       int
		want         string // a prefix of the response body
	}{
		{http.MethodPost, "/v1/blobs", slices.Concat(frame(kept, keptBody), frame(gone, goneBody)), http.StatusOK, `[{"status":204},{"status":204}]`},
		{http.MethodGet, "/v1/blobs/" + kept, nil, http.StatusOK, string(keptBody)},
		{http.MethodPost, "/v1/verify", []byte(`["` + kept + `"]`), http.StatusOK, `[{"ok":true,"logical":4}]`},
		{http.MethodDelete, "/v1/blobs/" + gone, nil, http.StatusNoContent, ""},
		{http.MethodGet, "/v1/digests", nil, http.StatusOK, `["` + kept + `"]`},
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
		if resp.StatusCode != c.status || !strings.HasPrefix(string(body), c.want) {
			t.Fatalf("%s %s = %d %q, want %d %q", c.method, c.path, resp.StatusCode, body, c.status, c.want)
		}
	}
	out.Reset()
	if err := got.drain(); err != nil {
		t.Fatal(err)
	}
	if want := "daspos-node: node site-a drained (1 blobs held)\n"; out.String() != want {
		t.Fatalf("drain logged %q, want %q", out, want)
	}
}
