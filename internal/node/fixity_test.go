package node

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
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

// TestPutRefusesHeaderBomb: a 50-byte stored blob claiming a terabyte
// payload used to take the node down inside the fixity gate (an allocation
// sized by the header: fatal out-of-memory, or a makeslice panic). It is a
// 422 like any other blob that fails fixity, costs no memory, and the node
// goes on serving. So is a frame claiming a gigabyte of stored bytes: the
// list is refused whole with 400, at the cost of the bytes that came.
func TestPutRefusesHeaderBomb(t *testing.T) {
	n, base := startNode(t, "n1")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, logical := range []uint64{1 << 40, 1 << 62} {
		if status := putRaw(t, base, cas.Digest(nil), headerBomb(logical)); status != http.StatusUnprocessableEntity {
			t.Fatalf("header claiming %d bytes: status %d, want 422", logical, status)
		}
	}
	claim := AppendFrameHeader(nil, cas.Digest(nil), maxBlobBytes)
	if status, _ := post(t, base+"/v1/blobs", append(claim, 1, 2, 3)); status != http.StatusBadRequest {
		t.Fatalf("frame claiming %d stored bytes: status %d, want 400", maxBlobBytes, status)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("refusing three short bodies allocated %d bytes", grew)
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

// FuzzNodePut throws arbitrary blob-list bodies at the PUT gate: it
// answers 200 with one answer per frame — 204 or a 4xx — or refuses broken
// framing with 400, and never panics. A frame's claimed length reserves no
// memory: the buffer frames are read into stays within twice the longest
// frame that arrived, plus one read step. Whatever the node stores verifies where it
// now lies, with the logical size a check of its bytes counts.
func FuzzNodePut(f *testing.F) {
	var blobs []frame
	for _, payload := range [][]byte{
		nil,
		[]byte("small"),
		bytes.Repeat([]byte("preserved event data "), 400),
		bytes.Repeat([]byte{0, 1, 2, 3, 5, 8, 13, 21}, 40<<10), // past the chunking threshold
	} {
		digest, comp := storedForm(f, payload)
		blobs = append(blobs, frame{digest, comp})
		f.Add(listBody(frame{digest, comp}))
		for _, off := range []int{0, 1, len(comp) / 2, len(comp) - 1} {
			bad := append([]byte(nil), comp...)
			bad[off%len(comp)] ^= 0x10
			f.Add(listBody(frame{digest, bad}))
		}
	}
	f.Add(listBody(frame{cas.Digest(nil), headerBomb(1 << 40)}))
	f.Add(listBody(frame{cas.Digest(nil), headerBomb(1 << 62)}))
	f.Add(listBody(frame{"not-a-digest", []byte{0}}))
	f.Add(listBody(blobs...))
	f.Add(AppendFrameHeader(nil, cas.Digest(nil), maxBlobBytes))
	f.Add(listBody(blobs[1], frame{blobs[2].digest, blobs[1].stored}, blobs[2])[:40])

	f.Fuzz(func(t *testing.T, body []byte) {
		frames, longest := 0, 0
		for r, buf := bufio.NewReader(bytes.NewReader(body)), []byte(nil); ; frames++ {
			_, comp, err := readFrame(r, buf)
			if err != nil {
				break
			}
			if longest = max(longest, len(comp)); cap(comp) > 2*longest+2*frameStep {
				t.Fatalf("frames of at most %d stored bytes reserved %d", longest, cap(comp))
			}
			buf = comp
		}
		n := New("fuzz", cas.NewShardedBackend(1))
		rec := httptest.NewRecorder()
		n.handlePut(rec, httptest.NewRequest(http.MethodPost, "/v1/blobs", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
			var res []PutResult
			if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil || len(res) != frames {
				t.Fatalf("%d answers for %d frames (%v)", len(res), frames, err)
			}
			for _, r := range res {
				if r.Status != http.StatusNoContent && (r.Status < 400 || r.Status >= 500) {
					t.Fatalf("blob status %d: %s", r.Status, r.Error)
				}
			}
		case http.StatusBadRequest:
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		for _, digest := range n.backend.Digests() {
			comp, logical, err := n.backend.GetBlob(digest)
			if err != nil {
				t.Fatalf("listed blob is not stored: %v", err)
			}
			checked, err := cas.VerifyBlob(digest, comp)
			if err != nil {
				t.Fatalf("stored blob fails fixity: %v", err)
			}
			if logical != checked {
				t.Fatalf("stored blob held as %d logical bytes, the check counts %d", logical, checked)
			}
		}
	})
}

// FuzzDigestList throws arbitrary bodies at the verify route's decoder: a
// list it accepts holds only valid digests and reads back the same from
// its own encoding.
func FuzzDigestList(f *testing.F) {
	for _, seed := range []string{
		`[]`, `null`, `["` + cas.Digest(nil) + `"]`, `["ab","cd"] `, `["AB"]`, `["../etc"]`,
		`[1]`, `["ab"] ["cd"]`, `{"ab":1}`, `[` + strings.Repeat(`"0",`, 100) + `"0"]`, ``, `[`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		ds, err := readDigests(bytes.NewReader(body))
		if err != nil {
			return
		}
		for _, d := range ds {
			if !validDigest(d) {
				t.Fatalf("accepted invalid digest %q", d)
			}
		}
		again, err := json.Marshal(ds)
		if err != nil {
			t.Fatal(err)
		}
		back, err := readDigests(bytes.NewReader(again))
		if err != nil || !slices.Equal(back, ds) {
			t.Fatalf("%s reads back as %q (%v), want %q", again, back, err, ds)
		}
	})
}

// verifyOK asks a node for its verdict on one stored digest.
func verifyOK(t *testing.T, base, digest string) bool {
	t.Helper()
	return verdicts(t, base, digest)[0].OK
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
	if res := verdicts(t, base, digest)[0]; !res.Missing || res.OK {
		t.Fatalf("verify of an absent blob: %+v, want missing", res)
	}
	if err := n.Backend().PutBlob(digest, raw, 0); err != nil {
		t.Fatal(err)
	}
	verify(true, 1)
}

// TestVerifyRacesPutAndDelete: puts of the two valid stored forms of one
// payload, DELETEs and verifies of it, all at once. Every stored byte is
// valid, so every verify that finds the blob answers ok.
func TestVerifyRacesPutAndDelete(t *testing.T) {
	_, base := startNode(t, "n1")
	payload := bytes.Repeat([]byte("contended "), 100)
	digest, comp := putBlob(t, base, payload)
	raw := append([]byte{0}, payload...)
	put := func(stored []byte) int {
		resp, err := http.Post(base+"/v1/blobs", "application/octet-stream", bytes.NewReader(listBody(frame{digest, stored})))
		if err != nil {
			t.Error(err)
			return 0
		}
		defer resp.Body.Close()
		var res []PutResult
		if json.NewDecoder(resp.Body).Decode(&res) != nil || len(res) != 1 {
			return resp.StatusCode
		}
		return res[0].Status
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				status := http.StatusNoContent
				switch {
				case w == 0:
					status = put(comp)
				case w == 1:
					status = put(raw)
				case w == 2 && i%5 == 4:
					req, _ := http.NewRequest(http.MethodDelete, base+"/v1/blobs/"+digest, nil)
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
					status = resp.StatusCode
				case w == 2:
					status = put(comp)
				default:
					resp, err := http.Post(base+"/v1/verify", "application/json", strings.NewReader(`["`+digest+`"]`))
					if err != nil {
						t.Error(err)
						return
					}
					var res []VerifyResult
					if err := json.NewDecoder(resp.Body).Decode(&res); err != nil || len(res) != 1 || !res[0].OK && !res[0].Missing {
						t.Errorf("verify of valid bytes: %+v (%v)", res, err)
					}
					resp.Body.Close()
				}
				if status != http.StatusNoContent {
					t.Errorf("worker %d: status %d, want 204", w, status)
				}
			}
		}(w)
	}
	wg.Wait()
}
