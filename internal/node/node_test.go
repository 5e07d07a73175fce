package node

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"daspos/internal/cas"
)

// startNode spins one node over httptest and returns it with its base URL.
func startNode(t *testing.T, id string) (*Node, string) {
	t.Helper()
	n := New(id, cas.NewShardedBackend(1))
	srv := httptest.NewServer(n.Handler())
	t.Cleanup(srv.Close)
	return n, srv.URL
}

// putBlob pushes a payload through the wire protocol and returns its
// digest and stored form.
func putBlob(t *testing.T, base string, payload []byte) (string, []byte) {
	t.Helper()
	digest := cas.Digest(payload)
	comp, err := cas.EncodeBlob(payload)
	if err != nil {
		t.Fatalf("EncodeBlob: %v", err)
	}
	req, err := http.NewRequest(http.MethodPut, base+"/v1/blobs/"+digest, bytes.NewReader(comp))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("put status %d: %s", resp.StatusCode, body)
	}
	return digest, comp
}

func TestPutGetRoundTrip(t *testing.T) {
	_, base := startNode(t, "n1")
	payload := bytes.Repeat([]byte("preserved event data "), 100)
	digest, comp := putBlob(t, base, payload)

	resp, err := http.Get(base + "/v1/blobs/" + digest)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, comp) {
		t.Fatalf("served blob differs from stored form")
	}
	data, err := cas.DecodeBlob(digest, body)
	if err != nil {
		t.Fatalf("served blob fails fixity: %v", err)
	}
	if !bytes.Equal(data, payload) {
		t.Fatal("payload round-trip mismatch")
	}
}

func TestPutRejectsWireCorruption(t *testing.T) {
	n, base := startNode(t, "n1")
	payload := bytes.Repeat([]byte("x"), 4096)
	digest := cas.Digest(payload)
	comp, err := cas.EncodeBlob(payload)
	if err != nil {
		t.Fatal(err)
	}
	comp[len(comp)/2] ^= 0xFF // corrupt in flight
	req, _ := http.NewRequest(http.MethodPut, base+"/v1/blobs/"+digest, bytes.NewReader(comp))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt put status %d, want 422", resp.StatusCode)
	}
	if n.Blobs() != 0 {
		t.Fatalf("corrupt blob was stored: %d blobs", n.Blobs())
	}
}

// TestPutStoresTheCheckedSize: a PUT carries the stored form and nothing
// else. The node stores the blob with the logical size its own check
// counted and serves the same bytes back.
func TestPutStoresTheCheckedSize(t *testing.T) {
	n, base := startNode(t, "n1")
	payload := bytes.Repeat([]byte("sized "), 500)
	comp, err := cas.EncodeBlob(payload)
	if err != nil {
		t.Fatal(err)
	}
	digest := cas.Digest(payload)
	req, _ := http.NewRequest(http.MethodPut, base+"/v1/blobs/"+digest, bytes.NewReader(comp))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("put status %d, want 204", resp.StatusCode)
	}
	stored, logical, err := n.Backend().GetBlob(digest)
	if err != nil || !bytes.Equal(stored, comp) || logical != int64(len(payload)) {
		t.Fatalf("stored %d bytes as %d logical (%v), want %d as %d", len(stored), logical, err, len(comp), len(payload))
	}
	resp, err = http.Get(base + "/v1/blobs/" + digest)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(body, comp) {
		t.Fatalf("get status %d, %d bytes (%v): not the stored form", resp.StatusCode, len(body), err)
	}
}

func TestStatAndDelete(t *testing.T) {
	_, base := startNode(t, "n1")
	digest, _ := putBlob(t, base, []byte("stat me"))

	resp, err := http.Head(base + "/v1/blobs/" + digest)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("head status %d", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/blobs/"+digest, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d", resp.StatusCode)
	}

	resp, err = http.Head(base + "/v1/blobs/" + digest)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("head after delete status %d, want 404", resp.StatusCode)
	}
}

func TestVerifyReportsBitRot(t *testing.T) {
	n, base := startNode(t, "n1")
	digest, _ := putBlob(t, base, bytes.Repeat([]byte("rot"), 2048))

	var res VerifyResult
	getJSON(t, base+"/v1/verify/"+digest, &res)
	if !res.OK {
		t.Fatal("fresh blob reported corrupt")
	}

	if err := n.Corrupt(digest); err != nil {
		t.Fatalf("Corrupt: %v", err)
	}
	getJSON(t, base+"/v1/verify/"+digest, &res)
	if res.OK {
		t.Fatal("bit-rotted blob reported healthy")
	}
}

// TestDigestRangeListing: the listing is the whole keyspace, every stored
// digest once, sorted; the route takes no parameters.
func TestDigestRangeListing(t *testing.T) {
	_, base := startNode(t, "n1")
	var empty []string
	getJSON(t, base+"/v1/digests", &empty)
	if empty == nil || len(empty) != 0 {
		t.Fatalf("empty node lists %v, want []", empty)
	}
	want := map[string]bool{}
	for i := 0; i < 20; i++ {
		d, _ := putBlob(t, base, []byte(fmt.Sprintf("blob %d", i)))
		want[d] = true
	}

	var all []string
	getJSON(t, base+"/v1/digests", &all)
	if len(all) != len(want) {
		t.Fatalf("listing: %d digests, want %d", len(all), len(want))
	}
	for i, d := range all {
		if !want[d] {
			t.Fatalf("listing names %s, which was never stored", d)
		}
		if i > 0 && all[i-1] >= d {
			t.Fatal("listing not sorted")
		}
	}
}

func TestInvalidDigestRejected(t *testing.T) {
	_, base := startNode(t, "n1")
	for _, bad := range []string{"UPPER", "zz", "../etc"} {
		resp, err := http.Get(base + "/v1/blobs/" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusNotFound {
			t.Fatalf("digest %q status %d, want 400/404", bad, resp.StatusCode)
		}
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
}
