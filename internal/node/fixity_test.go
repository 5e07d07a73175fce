package node

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"testing/iotest"

	"daspos/internal/cas"
)

// headerBomb is a chunked stored body (marker 0x02) whose header claims
// `logical` bytes in one chunk, with 40 bytes behind it.
func headerBomb(logical uint64) []byte {
	b := []byte{0x02}
	b = binary.AppendUvarint(b, logical)
	b = binary.AppendUvarint(b, logical)
	b = binary.AppendUvarint(b, 1)
	return append(b, make([]byte, 40)...)
}

func putRaw(t *testing.T, base, digest string, body []byte) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, base+"/v1/blobs/"+digest, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestPutRefusesHeaderBomb: a 50-byte PUT body claiming a terabyte payload
// used to take the node down inside the fixity gate (an allocation sized by
// the header: fatal out-of-memory, or a makeslice panic). It is a 422 like
// any other body that fails fixity, costs no memory, and the node goes on
// serving.
func TestPutRefusesHeaderBomb(t *testing.T) {
	n, base := startNode(t, "n1")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, logical := range []uint64{1 << 40, 1 << 62} {
		if status := putRaw(t, base, cas.Digest(nil), headerBomb(logical)); status != http.StatusUnprocessableEntity {
			t.Fatalf("header claiming %d bytes: status %d, want 422", logical, status)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("refusing two 50-byte bodies allocated %d bytes", grew)
	}
	if n.Blobs() != 0 {
		t.Fatalf("%d blobs stored", n.Blobs())
	}
	putBlob(t, base, []byte("the node still serves the next request"))
}

func TestReadBody(t *testing.T) {
	data := bytes.Repeat([]byte("stored blob "), 1000)
	for name, tc := range map[string]struct {
		r      io.Reader
		length int64
		maxCap int
	}{
		"declared":            {bytes.NewReader(data), int64(len(data)), len(data) + bytes.MinRead},
		"unknown-length":      {bytes.NewReader(data), -1, 4 * len(data)},
		"one-byte-reads":      {iotest.OneByteReader(bytes.NewReader(data)), int64(len(data)), len(data) + bytes.MinRead},
		"eof-with-last-bytes": {iotest.DataErrReader(bytes.NewReader(data)), int64(len(data)), len(data) + bytes.MinRead},
		"understated":         {bytes.NewReader(data), 10, 4 * len(data)},
		"overstated":          {bytes.NewReader(data), int64(len(data)) + 500, len(data) + 500 + bytes.MinRead},
		// A lying Content-Length reserves at most the cap, not what it says.
		"lying": {bytes.NewReader(data), 1 << 40, presizeCap + bytes.MinRead},
	} {
		t.Run(name, func(t *testing.T) {
			got, err := ReadBody(tc.r, tc.length)
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("err=%v, %d bytes, want %d", err, len(got), len(data))
			}
			if cap(got) > tc.maxCap {
				t.Fatalf("buffer capacity %d, want at most %d", cap(got), tc.maxCap)
			}
		})
	}
	boom := errors.New("boom")
	if _, err := ReadBody(iotest.ErrReader(boom), 100); !errors.Is(err, boom) {
		t.Fatalf("read error not passed on: %v", err)
	}
}

// FuzzNodePut throws arbitrary stored-form bodies at the PUT gate, with
// nothing beside them: it answers 204 or a 4xx and never panics, and
// whatever it acknowledged verifies where it now lies, stored with the
// logical size a check of the body counts.
func FuzzNodePut(f *testing.F) {
	for _, payload := range [][]byte{
		nil,
		[]byte("small"),
		bytes.Repeat([]byte("preserved event data "), 400),
		bytes.Repeat([]byte{0, 1, 2, 3, 5, 8, 13, 21}, 40<<10), // past the chunking threshold
	} {
		digest, comp := storedForm(f, payload)
		f.Add(digest, comp)
		for _, off := range []int{0, 1, len(comp) / 2, len(comp) - 1} {
			bad := append([]byte(nil), comp...)
			bad[off%len(comp)] ^= 0x10
			f.Add(digest, bad)
		}
	}
	f.Add(cas.Digest(nil), headerBomb(1<<40))
	f.Add(cas.Digest(nil), headerBomb(1<<62))
	f.Add("not-a-digest", []byte{0})

	f.Fuzz(func(t *testing.T, digest string, body []byte) {
		n := New("fuzz", cas.NewShardedBackend(1))
		req := httptest.NewRequest(http.MethodPut, "/v1/blobs/x", bytes.NewReader(body))
		req.SetPathValue("digest", digest)
		checked, _ := cas.VerifyBlob(digest, body) // 0 for a body the gate refuses
		rec := httptest.NewRecorder()
		n.handlePut(rec, req)
		switch {
		case rec.Code == http.StatusNoContent:
			comp, logical, err := n.backend.GetBlob(digest)
			if err != nil {
				t.Fatalf("acknowledged blob is not stored: %v", err)
			}
			if _, err := cas.VerifyBlob(digest, comp); err != nil {
				t.Fatalf("acknowledged blob fails fixity: %v", err)
			}
			if logical != checked {
				t.Fatalf("acknowledged blob stored as %d logical bytes, the check counted %d", logical, checked)
			}
		case rec.Code >= 400 && rec.Code < 500:
			if n.Blobs() != 0 {
				t.Fatalf("status %d but the blob was stored", rec.Code)
			}
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	})
}

// verifyOK asks a node for its verdict on one stored digest.
func verifyOK(t *testing.T, base, digest string) bool {
	t.Helper()
	var res VerifyResult
	getJSON(t, base+"/v1/verify/"+digest, &res)
	return res.OK
}

// TestVerifyVerdictIsTheKernels: whatever happened to the stored bytes
// behind the node's back after a PUT, its verify answers what the fixity
// kernel says of them. The bytes are set through Backend(), never through
// the node's own PUT, so only the kernel can vouch for them.
func TestVerifyVerdictIsTheKernels(t *testing.T) {
	n, base := startNode(t, "n1")
	payload := bytes.Repeat([]byte("fixity "), 40)
	digest, comp := putBlob(t, base, payload)
	if comp[0] == 0 {
		t.Fatal("the payload was meant to be stored deflated")
	}
	raw := append([]byte{0}, payload...) // the raw stored form: marker 0x00, then the payload

	// The raw form is the one change of the bytes the kernel must pass:
	// a flip, a cut or a byte more of either form it must refuse.
	ignored, rawPassed := 0, false
	check := func(name string, stored []byte) {
		t.Helper()
		if err := n.Backend().PutBlob(digest, stored, 0); err != nil {
			t.Fatal(err)
		}
		_, kerr := cas.VerifyBlob(digest, stored)
		if got, want := verifyOK(t, base, digest), kerr == nil; got != want {
			t.Fatalf("%s: verify says ok=%v, the kernel %v", name, got, want)
		}
		switch {
		case kerr == nil && bytes.Equal(stored, raw):
			rawPassed = true
		case kerr == nil && !bytes.Equal(stored, comp):
			ignored++
		}
	}
	for _, form := range [][]byte{comp, raw} {
		for i := range form {
			for _, mask := range []byte{0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0xFF} {
				flipped := append([]byte(nil), form...)
				flipped[i] ^= mask
				check(fmt.Sprintf("form 0x%02x, byte %d ^ 0x%02x", form[0], i, mask), flipped)
			}
			check("restored", form) // the PUT's bytes, then the other valid form
		}
		for _, cut := range []int{0, 1, len(form) / 2, len(form) - 1} {
			check(fmt.Sprintf("form 0x%02x cut to %d bytes", form[0], cut), form[:cut])
		}
		check("trailing byte", append(append([]byte(nil), form...), 7))
	}
	if ignored != 0 || !rawPassed {
		t.Fatalf("%d changed forms other than the raw one pass the kernel; the raw one passes: %v", ignored, rawPassed)
	}

	// Written straight into the backend: no PUT, so no record.
	other := []byte("never put through the node")
	otherRaw := append([]byte{0}, other...)
	if err := n.Backend().PutBlob(cas.Digest(other), otherRaw, 0); err != nil {
		t.Fatal(err)
	}
	if !verifyOK(t, base, cas.Digest(other)) {
		t.Fatal("a valid blob written into the backend reported corrupt")
	}
	otherRaw[len(otherRaw)-1] ^= 1
	if err := n.Backend().PutBlob(cas.Digest(other), otherRaw, 0); err != nil {
		t.Fatal(err)
	}
	if verifyOK(t, base, cas.Digest(other)) {
		t.Fatal("a corrupt blob written into the backend reported healthy")
	}
}

// TestCleanVerifyRunsNoKernel: a verify of bytes the node's own PUT proved
// hashes them and runs no kernel; a verify of anything else runs it, every
// time, until bytes pass it again.
func TestCleanVerifyRunsNoKernel(t *testing.T) {
	n, base := startNode(t, "n1")
	payload := bytes.Repeat([]byte("scrub "), 4096)
	digest, comp := putBlob(t, base, payload)
	raw := append([]byte{0}, payload...)
	verify := func(want bool, kernels int64) {
		t.Helper()
		before := n.kernelRuns.Load()
		if got := verifyOK(t, base, digest); got != want {
			t.Fatalf("verify ok=%v, want %v", got, want)
		}
		if ran := n.kernelRuns.Load() - before; ran != kernels {
			t.Fatalf("verify ran the kernel %d times, want %d", ran, kernels)
		}
	}
	verify(true, 0)
	verify(true, 0)
	if err := n.Corrupt(digest); err != nil {
		t.Fatal(err)
	}
	verify(false, 1)
	verify(false, 1)

	// The PUT's bytes put back: still proven.
	if err := n.Backend().PutBlob(digest, comp, 0); err != nil {
		t.Fatal(err)
	}
	verify(true, 0)
	// The other valid form, behind the node: the kernel passes it once, and
	// it is then proven.
	if err := n.Backend().PutBlob(digest, raw, 0); err != nil {
		t.Fatal(err)
	}
	verify(true, 1)
	verify(true, 0)

	// DELETE drops the record: bytes put back behind the node are checked.
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/blobs/"+digest, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := n.Backend().PutBlob(digest, raw, 0); err != nil {
		t.Fatal(err)
	}
	verify(true, 1)

	// A verify that finds the blob absent drops the record too.
	n.Backend().DeleteBlob(digest)
	resp, err = http.Get(base + "/v1/verify/" + digest)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("verify of an absent blob: status %d, want 404", resp.StatusCode)
	}
	if err := n.Backend().PutBlob(digest, raw, 0); err != nil {
		t.Fatal(err)
	}
	verify(true, 1)
}

// TestVerifyRacesPutAndDelete: PUTs of the two valid stored forms of one
// payload, DELETEs and verifies of it, all at once. Every stored byte is
// valid, so every verify that finds the blob answers ok.
func TestVerifyRacesPutAndDelete(t *testing.T) {
	_, base := startNode(t, "n1")
	payload := bytes.Repeat([]byte("contended "), 100)
	digest, comp := putBlob(t, base, payload)
	raw := append([]byte{0}, payload...)
	send := func(method string, body []byte) (*http.Response, error) {
		var r io.Reader
		if body != nil {
			r = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, base+"/v1/blobs/"+digest, r)
		if err != nil {
			return nil, err
		}
		return http.DefaultClient.Do(req)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				var resp *http.Response
				var err error
				switch w {
				case 0:
					resp, err = send(http.MethodPut, comp)
				case 1:
					resp, err = send(http.MethodPut, raw)
				case 2:
					if i%5 == 4 {
						resp, err = send(http.MethodDelete, nil)
					} else {
						resp, err = send(http.MethodPut, comp)
					}
				default:
					resp, err = http.Get(base + "/v1/verify/" + digest)
				}
				if err != nil {
					t.Error(err)
					return
				}
				switch {
				case w < 3 && resp.StatusCode != http.StatusNoContent:
					t.Errorf("worker %d: status %d, want 204", w, resp.StatusCode)
				case w == 3 && resp.StatusCode == http.StatusOK:
					var res VerifyResult
					if err := json.NewDecoder(resp.Body).Decode(&res); err != nil || !res.OK {
						t.Errorf("verify of valid bytes: ok=%v (%v)", res.OK, err)
					}
				case w == 3 && resp.StatusCode != http.StatusNotFound:
					t.Errorf("verify: status %d, want 200 or 404", resp.StatusCode)
				}
				resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()
}
