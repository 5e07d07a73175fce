package workflow

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"
)

// stream writes payload through a fresh ArtifactWriter in writes of the
// given sizes, cycled, and returns the committed artifact.
func stream(t testing.TB, payload []byte, writes []int) *Artifact {
	t.Helper()
	c := &Context{step: &Step{Name: "s", Outputs: []string{"out"}}, outputs: map[string]*Artifact{}}
	aw, err := c.StreamOutput("out", "RAW")
	if err != nil {
		t.Fatal(err)
	}
	for i, rest := 0, payload; len(rest) > 0; i++ {
		n := min(writes[i%len(writes)], len(rest))
		if m, err := aw.Write(rest[:n]); err != nil || m != n {
			t.Fatalf("Write(%d bytes) = %d, %v", n, m, err)
		}
		rest = rest[n:]
	}
	if err := aw.Commit(1); err != nil {
		t.Fatal(err)
	}
	return c.outputs["out"]
}

// payload returns n deterministic bytes in which no two blocks are
// alike, so a block copied out of order shows.
func payload(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7 ^ i>>8 ^ i>>16)
	}
	return p
}

// TestStreamOutputDataIsExactSize: a streamed artifact holds exactly the
// bytes written, in a slice with no spare capacity, under the digest of
// those bytes — at and around the block boundaries, in writes of odd
// sizes that straddle them. An empty artifact has no data at all.
func TestStreamOutputDataIsExactSize(t *testing.T) {
	writes := []int{1, 7, 4093, blockSize + 1, 13}
	for _, size := range []int{0, 1, blockSize - 1, blockSize, blockSize + 1, 3*blockSize + 7} {
		want := payload(size)
		a := stream(t, want, writes)
		if !bytes.Equal(a.Data, want) {
			t.Errorf("size %d: Data differs from the bytes written", size)
		}
		if cap(a.Data) != len(a.Data) {
			t.Errorf("size %d: cap(Data) = %d, len %d", size, cap(a.Data), len(a.Data))
		}
		if size == 0 && a.Data != nil {
			t.Errorf("empty artifact: Data is %#v, want nil", a.Data)
		}
		sum := sha256.Sum256(want)
		if got := a.Digest(); got != hex.EncodeToString(sum[:]) {
			t.Errorf("size %d: digest %s, want SHA-256 of the data", size, got)
		}
	}
}

// TestStreamOutputAllocatesTwiceItsSize bounds what streaming a large
// artifact allocates: its blocks once and the sealed copy once, about
// twice its size. A doubling buffer allocates 3.2 times a 5 MiB one.
func TestStreamOutputAllocatesTwiceItsSize(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates; scripts/verify.sh runs this gate without it")
	}
	for _, size := range []int{512 << 10, 5 << 20} {
		p := payload(size)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		stream(t, p, []int{4093})
		runtime.ReadMemStats(&after)
		ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(size)
		t.Logf("%d bytes streamed: %.2fx allocated", size, ratio)
		if ratio > 2.15 {
			t.Errorf("%d bytes streamed allocated %.2fx the artifact, budget 2.15x", size, ratio)
		}
	}
}
