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

// storedForm returns a payload's digest and the stored form a Store writes
// for it.
func storedForm(t testing.TB, payload []byte) (string, []byte) {
	t.Helper()
	backend := cas.NewShardedBackend(1)
	digest, err := cas.NewStoreWith(backend).Put(payload)
	if err != nil {
		t.Fatal(err)
	}
	comp, _, err := backend.GetBlob(digest)
	if err != nil {
		t.Fatal(err)
	}
	return digest, comp
}

// frame is one blob of a blob-list body.
type frame struct {
	digest string
	stored []byte
}

// listBody encodes frames as a blob-list body.
func listBody(frames ...frame) []byte {
	var body []byte
	for _, f := range frames {
		body = append(AppendFrameHeader(body, f.digest, len(f.stored)), f.stored...)
	}
	return body
}

// post sends a body to a route and returns the status and response body.
func post(t testing.TB, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// putList sends a blob list and returns the node's answer for each blob;
// a list the node refuses whole returns its status and no answers.
func putList(t testing.TB, base string, frames ...frame) (int, []PutResult) {
	t.Helper()
	status, body := post(t, base+"/v1/blobs", listBody(frames...))
	if status != http.StatusOK {
		return status, nil
	}
	var res []PutResult
	if err := json.Unmarshal(body, &res); err != nil || len(res) != len(frames) {
		t.Fatalf("put list: %d answers for %d blobs (%v): %s", len(res), len(frames), err, body)
	}
	return status, res
}

// putRaw sends one blob as a list of one and returns the node's status for it.
func putRaw(t testing.TB, base, digest string, body []byte) int {
	t.Helper()
	status, res := putList(t, base, frame{digest, body})
	if res == nil {
		return status
	}
	return res[0].Status
}

// putBlob pushes a payload through the wire protocol and returns its
// digest and stored form.
func putBlob(t *testing.T, base string, payload []byte) (string, []byte) {
	t.Helper()
	digest, comp := storedForm(t, payload)
	if status := putRaw(t, base, digest, comp); status != http.StatusNoContent {
		t.Fatalf("put status %d", status)
	}
	return digest, comp
}

// verdicts asks a node for its verdicts on a digest list.
func verdicts(t testing.TB, base string, digests ...string) []VerifyResult {
	t.Helper()
	list, err := json.Marshal(digests)
	if err != nil {
		t.Fatal(err)
	}
	status, body := post(t, base+"/v1/verify", list)
	var res []VerifyResult
	if status != http.StatusOK || json.Unmarshal(body, &res) != nil || len(res) != len(digests) {
		t.Fatalf("verify: status %d, %d verdicts for %d digests: %s", status, len(res), len(digests), body)
	}
	return res
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
	digest, comp := storedForm(t, bytes.Repeat([]byte("x"), 4096))
	comp[len(comp)/2] ^= 0xFF // corrupt in flight
	if status := putRaw(t, base, digest, comp); status != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt put status %d, want 422", status)
	}
	if n.Blobs() != 0 {
		t.Fatalf("corrupt blob was stored: %d blobs", n.Blobs())
	}
}

// TestListPutRefusesOnlyTheBadBlob: in a blob list with one blob corrupt
// on the wire, the node stores the others, answers 204 for each of them and
// 422 for the bad one, which it does not store. Framing that breaks after
// whole frames fails the request with 400, and the frames before the break
// stay stored.
func TestListPutRefusesOnlyTheBadBlob(t *testing.T) {
	n, base := startNode(t, "n1")
	var frames []frame
	for i := 0; i < 4; i++ {
		digest, comp := storedForm(t, bytes.Repeat([]byte(fmt.Sprintf("blob %d ", i)), 300))
		frames = append(frames, frame{digest, comp})
	}
	bad := append([]byte(nil), frames[2].stored...)
	bad[len(bad)/2] ^= 0xFF
	frames[2].stored = bad
	status, res := putList(t, base, frames...)
	if status != http.StatusOK {
		t.Fatalf("list status %d, want 200", status)
	}
	for i, r := range res {
		want := http.StatusNoContent
		if i == 2 {
			want = http.StatusUnprocessableEntity
		}
		if r.Status != want {
			t.Fatalf("blob %d: status %d (%s), want %d", i, r.Status, r.Error, want)
		}
		if _, _, err := n.Backend().GetBlob(frames[i].digest); (err == nil) != (i != 2) {
			t.Fatalf("blob %d: stored=%v after status %d", i, err == nil, r.Status)
		}
	}

	n2, base2 := startNode(t, "n2")
	body := listBody(frames[0], frames[1])
	if status, _ := post(t, base2+"/v1/blobs", append(body, listBody(frames[3])[:20]...)); status != http.StatusBadRequest {
		t.Fatalf("list cut inside a frame: status %d, want 400", status)
	}
	if got := n2.Blobs(); got != 2 {
		t.Fatalf("%d blobs stored from before the break, want 2", got)
	}
}

// TestPutStoresTheCheckedSize: a blob's frame carries the stored form and
// nothing else. The node stores the blob with the logical size its own check
// counted and serves the same bytes back.
func TestPutStoresTheCheckedSize(t *testing.T) {
	n, base := startNode(t, "n1")
	payload := bytes.Repeat([]byte("sized "), 500)
	digest, comp := storedForm(t, payload)
	if status := putRaw(t, base, digest, comp); status != http.StatusNoContent {
		t.Fatalf("put status %d, want 204", status)
	}
	stored, logical, err := n.Backend().GetBlob(digest)
	if err != nil || !bytes.Equal(stored, comp) || logical != int64(len(payload)) {
		t.Fatalf("stored %d bytes as %d logical (%v), want %d as %d", len(stored), logical, err, len(comp), len(payload))
	}
	resp, err := http.Get(base + "/v1/blobs/" + digest)
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
	payload := bytes.Repeat([]byte("rot"), 2048)
	digest, _ := putBlob(t, base, payload)

	if res := verdicts(t, base, digest)[0]; !res.OK || res.Logical != int64(len(payload)) || res.Missing {
		t.Fatalf("fresh blob: verdict %+v, want ok with %d logical bytes", res, len(payload))
	}

	if err := n.Corrupt(digest); err != nil {
		t.Fatalf("Corrupt: %v", err)
	}
	if res := verdicts(t, base, digest)[0]; res.OK || res.Missing {
		t.Fatalf("bit-rotted blob: verdict %+v, want corrupt", res)
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
		// In a blob list the blob is refused; in a digest list, the list.
		if status := putRaw(t, base, bad, []byte{0}); status != http.StatusBadRequest {
			t.Fatalf("blob under digest %q: status %d, want 400", bad, status)
		}
		if status, _ := post(t, base+"/v1/verify", []byte(`["`+bad+`"]`)); status != http.StatusBadRequest {
			t.Fatalf("verify of digest %q: status %d, want 400", bad, status)
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
