package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"daspos/internal/archive"
	"daspos/internal/cas"
)

// requestCounter is a transport that counts requests by method, path and
// node host.
type requestCounter struct {
	mu     sync.Mutex
	counts map[string]int
}

func (rc *requestCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	rc.mu.Lock()
	if rc.counts == nil {
		rc.counts = make(map[string]int)
	}
	path := r.URL.Path
	if strings.HasPrefix(path, "/v1/blobs/") {
		path = "/v1/blobs/{digest}"
	}
	rc.counts[r.Method+" "+path+" "+r.URL.Host]++
	rc.mu.Unlock()
	return http.DefaultTransport.RoundTrip(r)
}

// take returns the counts since the last take, per route and per route
// and host, and starts counting afresh.
func (rc *requestCounter) take() (perRoute map[string]int, perHost map[string]int) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	perRoute, perHost = make(map[string]int), rc.counts
	for k, n := range rc.counts {
		route := k[:strings.LastIndexByte(k, ' ')]
		perRoute[route] += n
	}
	rc.counts = nil
	return perRoute, perHost
}

// listPackage is a package of n small files and one past the chunking
// threshold.
func listPackage(i, n int) (archive.Metadata, map[string][]byte) {
	files := map[string][]byte{
		"big.bin": bytes.Repeat([]byte(fmt.Sprintf("package %d large ", i)), 40<<10),
	}
	for f := 0; f < n; f++ {
		files[fmt.Sprintf("f%02d.txt", f)] = []byte(fmt.Sprintf("package %d file %d", i, f))
	}
	return archive.Metadata{Title: fmt.Sprintf("package %d", i), Creator: "test"}, files
}

// TestOneRequestPerNode: ingesting a package probes each node at most
// once for its files and writes them with at most one request per owner
// node, then probes the manifest's first owner and writes the manifest with
// one more request to its owners; a fleet audit and a sweep each
// ask every node once for all their verdicts; and the audit fetches
// nothing.
func TestOneRequestPerNode(t *testing.T) {
	tc := startCluster(t, 5)
	rc := &requestCounter{}
	c := newClient(t, tc, Config{ReplicationFactor: 3, Transport: rc})
	a := archive.NewWithStore(cas.NewStoreWith(c))
	for i := 0; i < 3; i++ {
		meta, files := listPackage(i, 12)
		id, err := a.Ingest(meta, files)
		if err != nil {
			t.Fatal(err)
		}
		perRoute, perHost := rc.take()
		manifestOwners := map[string]bool{}
		for _, owner := range c.Owners(id) {
			manifestOwners[tc.hostOf(t, owner)] = true
		}
		for _, host := range tc.hosts {
			want := 1
			if manifestOwners[host] {
				want = 2
			}
			if n := perHost["POST /v1/blobs "+host]; n > want {
				t.Errorf("package %d: %d write requests to node %s, want at most %d", i, n, host, want)
			}
			if n := perHost["POST /v1/verify "+host]; n > 2 {
				t.Errorf("package %d: %d probes of node %s, want at most 2 (the files, the manifest)", i, n, host)
			}
		}
		if n := perRoute["POST /v1/verify"]; n > len(tc.hosts)+1 {
			t.Errorf("package %d: %d probes, want one per node for the files and one for the manifest", i, n)
		}
		if len(perRoute) != 2 {
			t.Errorf("package %d: requests %v, want only probes and writes", i, perRoute)
		}
	}

	rep := a.VerifyAll()
	if rep.Healthy != 3 || len(rep.Damaged) != 0 {
		t.Fatalf("fleet audit: %d of 3 healthy, damaged %v", rep.Healthy, rep.Damaged)
	}
	audit, perHost := rc.take()
	if audit["POST /v1/verify"] != len(tc.hosts) || len(perHost) != len(tc.hosts) {
		t.Fatalf("fleet audit sent %v, want one verify request to each of %d nodes and nothing else", audit, len(tc.hosts))
	}

	if sweep, err := c.Sweep(context.Background()); err != nil || !sweep.Converged() {
		t.Fatalf("sweep: %s, %v", sweep, err)
	}
	sweep, _ := rc.take()
	if sweep["POST /v1/verify"] != len(tc.hosts) || sweep["GET /v1/digests"] != len(tc.hosts) || len(sweep) != 2 {
		t.Fatalf("sweep sent %v, want one listing and one verify request to each of %d nodes", sweep, len(tc.hosts))
	}
}

// logicalField matches the size in a verify verdict.
var logicalField = regexp.MustCompile(`"logical":(\d+)`)

// TestFleetAuditNamesDamageTheSweepRepairs: over a fleet, VerifyAll takes
// every owner's verdict and no blob. A package is damaged when any owner's
// copy is corrupt or missing — not only the first owner's — or when an
// owner reports a size other than the manifest's; the next sweep repairs
// the copies, and the audit then finds every package healthy.
func TestFleetAuditNamesDamageTheSweepRepairs(t *testing.T) {
	var lying atomic.Bool
	tc := startClusterWith(t, 5, func(i int, h http.Handler) http.Handler {
		if i != 0 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !lying.Load() || r.URL.Path != "/v1/verify" {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			w.WriteHeader(rec.Code)
			w.Write(logicalField.ReplaceAllFunc(rec.Body.Bytes(), func(m []byte) []byte {
				n, _ := strconv.Atoi(string(logicalField.FindSubmatch(m)[1]))
				return []byte(`"logical":` + strconv.Itoa(n+1))
			}))
		})
	})
	c := newClient(t, tc, Config{ReplicationFactor: 3})
	a := archive.NewWithStore(cas.NewStoreWith(c))
	var ids []string
	for i := 0; i < 4; i++ {
		meta, files := listPackage(i, 3)
		id, err := a.Ingest(meta, files)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	pkg, _ := a.Get(ids[1])
	target := pkg.File("big.bin").Digest
	last := tc.nodeOf(t, c.Owners(target)[2])
	audit := func(want string) {
		t.Helper()
		rep := a.VerifyAll()
		if want == "" {
			if rep.Healthy != len(ids) || len(rep.Damaged) != 0 {
				t.Fatalf("audit: %d of %d healthy, damaged %v", rep.Healthy, len(ids), rep.Damaged)
			}
			return
		}
		if msg := rep.Damaged[ids[1]]; !strings.Contains(msg, want) || !strings.Contains(msg, "big.bin") {
			t.Fatalf("audit: package damage %q, want it to name big.bin and %q", msg, want)
		}
	}
	audit("")

	for name, damage := range map[string]func() error{
		"corrupt": func() error { return last.Corrupt(target) },
		"missing": func() error { last.Backend().DeleteBlob(target); return nil },
	} {
		if err := damage(); err != nil {
			t.Fatal(err)
		}
		want := "blob corrupt"
		if name == "missing" {
			want = "blob not found"
		}
		audit(want)
		rep, err := c.Sweep(context.Background())
		if err != nil || rep.Repaired != 1 {
			t.Fatalf("%s: sweep repaired %d copies (%v), want 1", name, rep.Repaired, err)
		}
		audit("")
	}

	// An owner that reports another size than the manifest records.
	lying.Store(true)
	rep := a.VerifyAll()
	if len(rep.Damaged) == 0 {
		t.Fatal("audit passed an owner that reports sizes other than the manifest's")
	}
	for id, msg := range rep.Damaged {
		if !strings.Contains(msg, "size drift") && !strings.Contains(msg, "logical bytes") {
			t.Fatalf("package %s: damage %q, want a size mismatch", id, msg)
		}
	}
	lying.Store(false)
	audit("")

	// The verdict errors keep their sentinels.
	_, errs := c.VerifyMany([]string{target, cas.Digest([]byte("never stored"))})
	if errs[0] != nil || !errors.Is(errs[1], cas.ErrNotFound) {
		t.Fatalf("verdicts: %v, %v; want nil and not found", errs[0], errs[1])
	}
}
