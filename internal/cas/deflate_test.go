package cas

import (
	"bytes"
	"compress/flate"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"testing"
)

// deflateSizes are the payload sizes around every branch of the block
// split: an empty payload, the stored tails (up to 16 bytes), the
// Huffman-only tails (17 to 127), whole blocks, and a block followed by
// each kind of tail.
var deflateSizes = []int{0, 1, 16, 17, 127, 128, 65535, 65536, 65551, 65552, 131070, 131071}

// deflateCorpus is the differential tests' inputs: text at every size of
// deflateSizes, the stored-form payloads, a 64 KiB slice of a tier file,
// noise Huffman coding cannot shrink, and one repeated byte.
func deflateCorpus(t testing.TB) map[string][]byte {
	t.Helper()
	text := seededText(rand.New(rand.NewSource(57)), 131071)
	m := make(map[string][]byte)
	for _, n := range deflateSizes {
		m[fmt.Sprintf("text-%d", n)] = text[:n]
	}
	for name, p := range storedFormPayloads() {
		m["stored-form-"+name] = p
	}
	m["raw.banks-64KiB"] = tierPackageFiles(t)["raw.banks"][:64<<10]
	noise := make([]byte, 150000)
	rand.New(rand.NewSource(1512)).Read(noise)
	m["noise"], m["noise-300"] = noise, noise[:300]
	m["zeros"], m["zeros-300"] = make([]byte, 140000), make([]byte, 300)
	return m
}

// deflateAll is the encoder's whole stream for data, with room for any.
func deflateAll(t testing.TB, e *deflater, data []byte) []byte {
	t.Helper()
	dst := make([]byte, 2*len(data)+64+deflateSlack)
	n, ok := e.deflate(dst, data)
	if !ok {
		t.Fatalf("%d bytes: the stream does not fit %d bytes", len(data), len(dst)-deflateSlack)
	}
	return dst[:n]
}

// checkDeflate holds the encoder to compress/flate's BestSpeed stream for
// data, byte for byte, and the fixity kernel to inflating it back. The
// stream is written exactly when it is shorter than the limit.
func checkDeflate(t testing.TB, e *deflater, data []byte) {
	t.Helper()
	want := deflateAt(t, flate.BestSpeed, data)
	got := deflateAll(t, e, data)
	if !bytes.Equal(got, want) {
		at := 0
		for at < min(len(got), len(want)) && got[at] == want[at] {
			at++
		}
		t.Fatalf("%d bytes: stream of %d bytes differs from compress/flate's %d at byte %d", len(data), len(got), len(want), at)
	}
	out := make([]byte, len(data))
	if n, err := new(inflater).inflate(out, got); err != nil || n != len(data) || !bytes.Equal(out, data) {
		t.Fatalf("%d bytes: the kernel inflates %d bytes (%v), equal=%v", len(data), n, err, bytes.Equal(out[:n], data))
	}
	// Under a limit of its own length the stream is refused; one byte
	// more and it is written.
	dst := make([]byte, len(want)+deflateSlack)
	if _, ok := e.deflate(dst, data); ok {
		t.Fatalf("%d bytes: a %d-byte stream written under a limit of %d", len(data), len(want), len(want))
	}
	dst = make([]byte, len(want)+1+deflateSlack)
	if n, ok := e.deflate(dst, data); !ok || !bytes.Equal(dst[:n], want) {
		t.Fatalf("%d bytes: under a limit of %d the stream is ok=%v, equal=%v", len(data), len(want)+1, ok, bytes.Equal(dst[:n], want))
	}
}

func FuzzDeflateMatchesFlate(f *testing.F) {
	corpus := deflateCorpus(f)
	names := make([]string, 0, len(corpus))
	for name := range corpus {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(corpus[name])
	}
	e := newDeflater()
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDeflate(t, e, data)
	})
}

// TestEncoderIsHistoryFree reuses one encoder across a shuffled corpus:
// each stream must be the one a fresh encoder writes.
func TestEncoderIsHistoryFree(t *testing.T) {
	var inputs [][]byte
	for _, data := range deflateCorpus(t) {
		inputs = append(inputs, data, data) // each twice: the table then holds its own positions
	}
	rng := rand.New(rand.NewSource(55))
	rng.Shuffle(len(inputs), func(i, j int) { inputs[i], inputs[j] = inputs[j], inputs[i] })
	reused := newDeflater()
	for i, data := range inputs {
		if got, want := deflateAll(t, reused, data), deflateAll(t, newDeflater(), data); !bytes.Equal(got, want) {
			t.Fatalf("input %d (%d bytes): the reused encoder writes %d bytes, a fresh one %d", i, len(data), len(got), len(want))
		}
	}
}

// TestEncoderOffsetWrap starts an encoder with its running offset just
// under the point where the table's offsets are shifted down: the shift
// comes between blocks, with the previous block held and matched into, and
// the stream must not change. A second payload then starts past the point
// with nothing held.
func TestEncoderOffsetWrap(t *testing.T) {
	data := seededText(rand.New(rand.NewSource(2014)), 3*maxStoreBlock+1000)[:3*maxStoreBlock+1000]
	e := newDeflater()
	// deflate moves cur on by maxMatchOffset first: the first block then
	// starts half a block under the point, the second past it.
	e.cur = offsetReset - maxMatchOffset - maxStoreBlock/2
	checkDeflate(t, e, data)
	if e.cur >= offsetReset/2 {
		t.Fatalf("cur %d: the offsets were never shifted", e.cur)
	}
	e.cur = offsetReset - maxMatchOffset/2
	checkDeflate(t, e, data[:3000])
	if e.cur >= offsetReset/2 {
		t.Fatalf("cur %d: the offsets were never shifted", e.cur)
	}
}

// TestEncodeAllocs pins what a warm encode allocates: a flat one nothing
// but the stored form it returns, a chunked one the one buffer its chunks
// are written into, whatever their number. The collector is off while it
// counts, so no collection empties the encoder pool between two encodes.
func TestEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates; scripts/verify.sh runs this gate without it")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	flat := seededText(rand.New(rand.NewSource(5)), 5400)[:5400]
	encode(flat, 1)
	if n := testing.AllocsPerRun(100, func() { encode(flat, 1) }); n != 1 {
		t.Errorf("flat encode: %.0f allocations, want 1", n)
	}
	chunked := compressiblePayload(2 << 20)
	for _, workers := range []int{1, 2} {
		var comp []byte
		encode(chunked, workers)
		allocs := testing.AllocsPerRun(10, func() { comp = encode(chunked, workers) })
		// The bytes are counted on one P too, as AllocsPerRun counts:
		// an encoder pooled in another P's private slot cannot be taken,
		// so an encode that moved to a busy machine's other P would
		// count a fresh encoder. The pool first gets one encoder per
		// worker on that P: a worker preempted mid-chunk leaves the next
		// one to take a second, which a warm-up encode that ran its
		// chunks on one worker would not have pooled.
		procs := runtime.GOMAXPROCS(1)
		held := make([]*deflater, workers)
		for i := range held {
			held[i] = deflaterPool.Get().(*deflater)
		}
		for _, e := range held {
			deflaterPool.Put(e)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 10
		for range runs {
			comp = encode(chunked, workers)
		}
		runtime.ReadMemStats(&after)
		runtime.GOMAXPROCS(procs)
		perRun := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("2 MiB at %d workers: %.0f allocations, %d bytes, %d-byte buffer", workers, allocs, perRun, cap(comp))
		if allocs > 4+2*float64(workers) {
			t.Errorf("2 MiB chunked encode at %d workers: %.0f allocations", workers, allocs)
		}
		// The buffer is rounded up to whole 8 KiB pages.
		if perRun > uint64(cap(comp))+16<<10 {
			t.Errorf("2 MiB chunked encode at %d workers: %d bytes allocated, %d of them the stored form's buffer", workers, perRun, cap(comp))
		}
	}
}

// TestBitCountsMatchReference holds the chain-node bit counts to
// compress/flate's, on frequencies with many ties and on skewed ones that
// the length limit binds.
func TestBitCountsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1995))
	e := newDeflater()
	cases := 30000
	if raceEnabled {
		cases = 3000 // one goroutine: the detector has nothing to find
	}
	for i := 0; i < cases; i++ {
		n := 3 + rng.Intn(numLitLen-2)
		if i%2 == 0 {
			n = 3 + rng.Intn(30)
		}
		keys := make([]uint32, n)
		for s := range keys {
			f := 1 + rng.Intn(1+rng.Intn(64))
			switch i % 3 {
			case 0:
				f = 1 << rng.Intn(16) // a skewed spread
			case 1:
				f = 1 + rng.Intn(3) // ties everywhere
			}
			keys[s] = uint32(f)<<9 | uint32(s)
		}
		slices.Sort(keys)
		for _, maxBits := range []int32{7, 15} {
			if n > 1<<maxBits {
				continue // no code that short has room for them all
			}
			if got, want := e.bitCounts(keys, maxBits), referenceBitCounts(keys, maxBits); got != want {
				t.Fatalf("%d symbols, maxBits %d: counts %v, compress/flate's %v", n, maxBits, got, want)
			}
		}
	}
}

// referenceBitCounts is compress/flate's bitCounts as it is written, its
// chains a matrix of leaf counts copied level to level.
func referenceBitCounts(keys []uint32, maxBits int32) (count [16]int32) {
	n := int32(len(keys))
	freq := func(i int32) int32 {
		if i >= n {
			return math.MaxInt32
		}
		return int32(keys[i] >> 9)
	}
	maxBits = min(maxBits, n-1)
	type level struct {
		lastFreq, nextCharFreq, nextPairFreq, needed int32
	}
	var levels [16]level
	// leafCounts[i][j] is the number of leaves left of the level-j ancestor
	// of the rightmost node at level i.
	var leafCounts [16][16]int32
	for l := int32(1); l <= maxBits; l++ {
		levels[l] = level{lastFreq: freq(1), nextCharFreq: freq(2), nextPairFreq: freq(0) + freq(1)}
		leafCounts[l][l] = 2
	}
	levels[1].nextPairFreq = math.MaxInt32
	levels[maxBits].needed = 2*n - 4

	l := maxBits
	for {
		lv := &levels[l]
		if lv.nextPairFreq == math.MaxInt32 && lv.nextCharFreq == math.MaxInt32 {
			// Out of leaves and pairs: never come back to this level.
			lv.needed = 0
			levels[l+1].nextPairFreq = math.MaxInt32
			l++
			continue
		}
		prevFreq := lv.lastFreq
		if lv.nextCharFreq < lv.nextPairFreq {
			// A leaf.
			c := leafCounts[l][l] + 1
			lv.lastFreq = lv.nextCharFreq
			leafCounts[l][l] = c
			lv.nextCharFreq = freq(c)
		} else {
			// A pair from the level below, which must make two more.
			lv.lastFreq = lv.nextPairFreq
			copy(leafCounts[l][:l], leafCounts[l-1][:l])
			levels[l-1].needed = 2
		}
		if lv.needed--; lv.needed == 0 {
			if l == maxBits {
				break
			}
			levels[l+1].nextPairFreq = prevFreq + lv.lastFreq
			l++
		} else {
			for levels[l-1].needed > 0 {
				l--
			}
		}
	}
	for l, b := maxBits, 1; l > 0; l, b = l-1, b+1 {
		count[b] = leafCounts[maxBits][l] - leafCounts[maxBits][l-1]
	}
	return count
}
