package node

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
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
	req.Header.Set(LogicalHeader, strconv.Itoa(len(payload)))
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
	if got := resp.Header.Get(LogicalHeader); got != strconv.Itoa(len(payload)) {
		t.Fatalf("logical header %q, want %d", got, len(payload))
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
	req.Header.Set(LogicalHeader, strconv.Itoa(len(payload)))
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

// TestPutRefusesLyingLogicalHeader: the node serves the logical header back
// on every GET, so it stores only the size its own check counted. A header
// that says otherwise is refused, and the refusal names both sizes.
func TestPutRefusesLyingLogicalHeader(t *testing.T) {
	n, base := startNode(t, "n1")
	payload := bytes.Repeat([]byte("sized "), 500)
	comp, err := cas.EncodeBlob(payload)
	if err != nil {
		t.Fatal(err)
	}
	for _, lie := range []int{0, len(payload) - 1, len(payload) + 1, len(comp)} {
		req, _ := http.NewRequest(http.MethodPut, base+"/v1/blobs/"+cas.Digest(payload), bytes.NewReader(comp))
		req.Header.Set(LogicalHeader, strconv.Itoa(lie))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("header %d on a %d-byte payload: status %d, want 422", lie, len(payload), resp.StatusCode)
		}
		if msg := string(body); !strings.Contains(msg, strconv.Itoa(lie)) || !strings.Contains(msg, strconv.Itoa(len(payload))) {
			t.Fatalf("refusal %q does not name both sizes (%d, %d)", msg, lie, len(payload))
		}
	}
	if n.Blobs() != 0 {
		t.Fatalf("%d blobs stored under a lying header", n.Blobs())
	}
	putBlob(t, base, payload)
}

func TestPutRequiresLogicalHeader(t *testing.T) {
	_, base := startNode(t, "n1")
	payload := []byte("small")
	comp, _ := cas.EncodeBlob(payload)
	req, _ := http.NewRequest(http.MethodPut, base+"/v1/blobs/"+cas.Digest(payload), bytes.NewReader(comp))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("headerless put status %d, want 400", resp.StatusCode)
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
		t.Fatalf("fresh blob reported corrupt: %s", res.Error)
	}

	if err := n.Corrupt(digest); err != nil {
		t.Fatalf("Corrupt: %v", err)
	}
	getJSON(t, base+"/v1/verify/"+digest, &res)
	if res.OK {
		t.Fatal("bit-rotted blob reported healthy")
	}
	if res.Error == "" {
		t.Fatal("corrupt verdict carries no error detail")
	}
}

func TestDigestRangeListing(t *testing.T) {
	_, base := startNode(t, "n1")
	var digests []string
	for i := 0; i < 20; i++ {
		d, _ := putBlob(t, base, []byte(fmt.Sprintf("blob %d", i)))
		digests = append(digests, d)
	}

	var all []string
	getJSON(t, base+"/v1/digests", &all)
	if len(all) != 20 {
		t.Fatalf("full listing: %d digests, want 20", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1] >= all[i] {
			t.Fatal("listing not sorted")
		}
	}

	// Walking the 16 hex-prefix ranges must partition the full set.
	var walked []string
	for _, r := range [][2]string{
		{"", "1"}, {"1", "2"}, {"2", "3"}, {"3", "4"}, {"4", "5"}, {"5", "6"},
		{"6", "7"}, {"7", "8"}, {"8", "9"}, {"9", "a"}, {"a", "b"}, {"b", "c"},
		{"c", "d"}, {"d", "e"}, {"e", "f"}, {"f", ""},
	} {
		var page []string
		getJSON(t, base+"/v1/digests?start="+r[0]+"&end="+r[1], &page)
		walked = append(walked, page...)
	}
	if len(walked) != len(all) {
		t.Fatalf("range walk covers %d digests, want %d", len(walked), len(all))
	}
	for i, d := range walked {
		if d != all[i] {
			t.Fatalf("range walk order diverges at %d", i)
		}
	}

	var limited []string
	getJSON(t, base+"/v1/digests?limit=5", &limited)
	if len(limited) != 5 {
		t.Fatalf("limited listing: %d, want 5", len(limited))
	}
}

func TestHealth(t *testing.T) {
	_, base := startNode(t, "the-node")
	putBlob(t, base, []byte("one"))
	var h Health
	getJSON(t, base+"/v1/health", &h)
	if h.ID != "the-node" || h.Blobs != 1 {
		t.Fatalf("health = %+v", h)
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
