package node

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
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
		backend := cas.NewShardedBackend(1)
		digest, err := cas.NewStoreWith(backend).Put(payload)
		if err != nil {
			f.Fatal(err)
		}
		comp, _, err := backend.GetBlob(digest)
		if err != nil {
			f.Fatal(err)
		}
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
