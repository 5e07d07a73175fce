package cas

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"daspos/internal/conditions"
	"daspos/internal/datamodel"
	"daspos/internal/detector"
	"daspos/internal/generator"
	"daspos/internal/rawdata"
	"daspos/internal/reco"
	"daspos/internal/sim"
)

// The kernel's tests are differential: compress/flate's decoder is the
// reference. What the kernel accepts, the reference accepts too, with every
// output byte the same and the whole input consumed; what the reference
// accepts and the kernel refuses is refused for input after the final
// block or a set padding bit, which compress/flate's reader ignores and
// its writer never writes.

// bitWriter packs a DEFLATE stream by hand, for streams no encoder emits.
type bitWriter struct {
	out []byte
	n   uint // bits used in the last byte
}

// bits appends the low n bits of v, least significant first (header fields
// and extra bits).
func (w *bitWriter) bits(v uint32, n uint) {
	for i := uint(0); i < n; i++ {
		if w.n == 0 {
			w.out = append(w.out, 0)
		}
		w.out[len(w.out)-1] |= byte(v>>i&1) << w.n
		w.n = (w.n + 1) & 7
	}
}

// code appends an n-bit Huffman code, most significant bit first.
func (w *bitWriter) code(c uint32, n uint) {
	w.bits(uint32(bits.Reverse32(c)>>(32-n)), n)
}

// canonical assigns canonical Huffman codes to a list of code lengths.
func canonical(lens []uint8) []uint32 {
	var count, next [17]uint32
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	code := uint32(0)
	for l := 1; l <= 15; l++ {
		code = (code + count[l-1]) << 1
		next[l] = code
	}
	codes := make([]uint32, len(lens))
	for s, l := range lens {
		if l != 0 {
			codes[s] = next[l]
			next[l]++
		}
	}
	return codes
}

// testPreLens is a complete code over all 19 code-length symbols, so a
// test can spell any sequence of lengths and repeats: 13 codes of four
// bits, six of five.
var testPreLens = func() []uint8 {
	l := make([]uint8, 19)
	for s := range l {
		l[s] = 4
		if s >= 13 {
			l[s] = 5
		}
	}
	return l
}()

// dynamicHeader starts a final dynamic block whose literal/length and
// distance code lengths are spelled out one by one (no repeat codes), and
// returns the two codes for the caller to write symbols with.
func (w *bitWriter) dynamicHeader(litLens, distLens []uint8) (lit, dist []uint32) {
	w.bits(1, 1) // final
	w.bits(2, 2) // dynamic
	w.bits(uint32(len(litLens)-257), 5)
	w.bits(uint32(len(distLens)-1), 5)
	w.bits(19-4, 4)
	for _, s := range codeOrder {
		w.bits(uint32(testPreLens[s]), 3)
	}
	pre := canonical(testPreLens)
	for _, l := range append(append([]uint8(nil), litLens...), distLens...) {
		w.code(pre[l], uint(testPreLens[l]))
	}
	return canonical(litLens), canonical(distLens)
}

// fixedLit writes one literal/length symbol of the fixed code.
func (w *bitWriter) fixedLit(s uint32) {
	switch {
	case s < 144:
		w.code(0x30+s, 8)
	case s < 256:
		w.code(0x190+s-144, 9)
	case s < 280:
		w.code(s-256, 7)
	default:
		w.code(0xc0+s-280, 8)
	}
}

func deflateAt(t testing.TB, level int, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw, err := flate.NewWriter(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// litLensFor returns nlit literal/length code lengths, zero but for the
// given symbol:length pairs.
func litLensFor(nlit int, pairs ...int) []uint8 {
	l := make([]uint8, nlit)
	for i := 0; i < len(pairs); i += 2 {
		l[pairs[i]] = uint8(pairs[i+1])
	}
	return l
}

// namedStreams are the hand-built corner cases, valid and invalid; the
// reference decides which is which.
func namedStreams(t testing.TB) map[string][]byte {
	text := bytes.Repeat([]byte("selection muon electron jet vertex trigger 12345\n"), 40)
	m := map[string][]byte{
		"empty-input":         {},
		"stored":              deflateAt(t, flate.NoCompression, text),
		"stored-empty":        deflateAt(t, flate.NoCompression, nil),
		"huffman-only":        deflateAt(t, flate.HuffmanOnly, text),
		"dynamic":             deflateAt(t, flate.BestCompression, text),
		"fixed":               deflateAt(t, flate.BestSpeed, []byte("abcabcabcabc")),
		"reserved-blocktype":  {0x07},
		"stored-len-mismatch": {0x01, 0x05, 0x00, 0x00, 0x00, 'h', 'e', 'l', 'l', 'o'},
		"stored-truncated":    {0x01, 0x05, 0x00, 0xfa, 0xff, 'h', 'e'},
	}

	// Fixed block: 'a', then a match of length 3 at the given distance.
	fixedMatch := func(dist uint32) []byte {
		var w bitWriter
		w.bits(1, 1)
		w.bits(1, 2)
		w.fixedLit('a')
		w.fixedLit(257)   // length 3
		w.code(dist-1, 5) // distances 1..4 are symbols 0..3
		w.fixedLit(256)
		return w.out
	}
	m["fixed-overlapping-match"] = fixedMatch(1)
	m["distance-one-past-start"] = fixedMatch(2)
	for _, s := range []uint32{286, 287} {
		var w bitWriter
		w.bits(1, 1)
		w.bits(1, 2)
		w.fixedLit(s)
		w.code(0, 5)
		w.fixedLit(256)
		m[fmt.Sprintf("fixed-length-symbol-%d", s)] = w.out
	}
	for _, s := range []uint32{30, 31} {
		var w bitWriter
		w.bits(1, 1)
		w.bits(1, 2)
		w.fixedLit('a')
		w.fixedLit(257)
		w.code(s, 5)
		w.fixedLit(256)
		m[fmt.Sprintf("fixed-distance-symbol-%d", s)] = w.out
	}

	// A distance tree of one one-bit code: zlib and compress/flate accept
	// it, and the bit pattern it does not own is an error only when used.
	for name, distBit := range map[string]uint32{"single-code-distance-tree": 0, "single-code-distance-tree-unowned": 1} {
		var w bitWriter
		lit, _ := w.dynamicHeader(litLensFor(258, 'a', 2, 256, 2, 257, 1), []uint8{1})
		w.code(lit['a'], 2)
		w.code(lit[257], 1)
		w.bits(distBit, 1)
		w.code(lit[256], 2)
		m[name] = w.out
	}
	{
		// The same degenerate shape for the literal/length tree: only an
		// end-of-block code.
		var w bitWriter
		w.dynamicHeader(litLensFor(257, 256, 1), []uint8{0})
		w.bits(0, 1)
		m["single-code-literal-tree"] = w.out
	}
	{
		var w bitWriter
		w.dynamicHeader(litLensFor(257), []uint8{0})
		w.bits(0, 8)
		m["empty-literal-tree"] = w.out
	}
	{
		var w bitWriter
		lit, _ := w.dynamicHeader(litLensFor(257, 'a', 1, 'b', 1), []uint8{0})
		for i := 0; i < 64; i++ {
			w.code(lit['a'+uint32(i&1)], 1)
		}
		m["no-end-of-block-code"] = w.out
	}
	{
		var w bitWriter
		w.dynamicHeader(litLensFor(257, 'a', 1, 'b', 1, 256, 1), []uint8{0})
		w.bits(0, 8)
		m["oversubscribed-literal-tree"] = w.out
	}
	{
		var w bitWriter
		w.dynamicHeader(litLensFor(257, 'a', 2, 256, 2), []uint8{0})
		w.bits(0, 8)
		m["incomplete-literal-tree"] = w.out
	}
	{
		// Codes of every length up to 15, so both tables need sub-tables.
		lens := litLensFor(286, 256, 15, 285, 15)
		for l := 1; l <= 14; l++ {
			lens['a'+l] = uint8(l)
		}
		dlens := make([]uint8, 30)
		dlens[0], dlens[29] = 15, 15
		for l := 1; l <= 14; l++ {
			dlens[l] = uint8(l)
		}
		var w bitWriter
		lit, dist := w.dynamicHeader(lens, dlens)
		for l := 1; l <= 14; l++ {
			w.code(lit['a'+l], uint(l))
		}
		for _, ds := range []int{0, 1, 7, 14} {
			w.code(lit[285], 15) // length 258
			w.code(dist[ds], uint(dlens[ds]))
			if ds >= 4 {
				w.bits(1, uint(ds-2)/2)
			}
		}
		w.code(lit[256], 15)
		m["fifteen-bit-codes"] = w.out
	}
	for name, field := range map[string][2]uint32{"hlit-287": {30, 0}, "hlit-288": {31, 0}, "hdist-31": {0, 30}, "hdist-32": {0, 31}} {
		var w bitWriter
		w.bits(1, 1)
		w.bits(2, 2)
		w.bits(field[0], 5)
		w.bits(field[1], 5)
		w.bits(0, 4)
		w.bits(0, 64)
		m[name] = w.out
	}
	{
		// Code-length code {0: one bit, 16: one bit}; the first symbol is
		// 16, "repeat the previous length", with nothing before it.
		var w bitWriter
		w.bits(1, 1)
		w.bits(2, 2)
		w.bits(0, 5)
		w.bits(0, 5)
		w.bits(0, 4) // four code-length code lengths: 16, 17, 18, 0
		w.bits(1, 3)
		w.bits(0, 3)
		w.bits(0, 3)
		w.bits(1, 3)
		w.bits(1, 1) // symbol 16
		w.bits(0, 2)
		w.bits(0, 64)
		m["repeat-with-no-previous-length"] = w.out
	}
	{
		// The repeat that runs past HLIT+HDIST.
		var w bitWriter
		w.bits(1, 1)
		w.bits(2, 2)
		w.bits(0, 5)
		w.bits(0, 5)
		w.bits(0, 4) // 16, 17, 18, 0 → {18: one bit, 0: one bit}
		w.bits(0, 3)
		w.bits(0, 3)
		w.bits(1, 3)
		w.bits(1, 3)
		for i := 0; i < 3; i++ {
			w.bits(1, 1) // symbol 18
			w.bits(127, 7)
		}
		w.bits(0, 64)
		m["repeat-past-the-end"] = w.out
	}
	return m
}

// referenceInflate is compress/flate: the output, how many input bytes it
// consumed, and whether it failed. A bytes.Reader is an io.ByteReader, so
// compress/flate reads no byte it does not need.
func referenceInflate(src []byte) (out []byte, consumed int, err error) {
	rd := bytes.NewReader(src)
	zr := flate.NewReader(rd)
	out, err = io.ReadAll(zr)
	return out, len(src) - rd.Len(), err
}

// checkInflate holds the kernel to the reference on one input.
func checkInflate(t testing.TB, d *inflater, src []byte) {
	t.Helper()
	want, consumed, werr := referenceInflate(src)

	// With room to spare the kernel must reach a verdict the reference
	// allows; fastOutMargin of slack also sends it through the unchecked
	// loop.
	dst := make([]byte, len(want)+2*fastOutMargin)
	n, err := d.inflate(dst, src)
	switch {
	case err == errDstFull:
		t.Fatalf("reference: %d bytes (%v); kernel wants more than %d bytes of room", len(want), werr, len(dst))
	case werr != nil && err == nil:
		t.Fatalf("reference fails (%v) after %d bytes; kernel succeeds with %d", werr, len(want), n)
	case werr != nil:
		return
	case err == errInflateTrailing || err == errInflatePadding:
		// The kernel asks more of a stream than the reader does: the
		// stream ends at the input's end, with zero padding. Cut to where
		// the reference stopped, only a padding bit can be left to refuse.
		if err == errInflateTrailing && consumed == len(src) {
			t.Fatalf("kernel finds trailing input; the reference consumed all %d bytes", consumed)
		}
		if _, err := d.inflate(dst, src[:consumed]); err != nil && err != errInflatePadding {
			t.Fatalf("input cut to the %d bytes the reference consumed: %v", consumed, err)
		}
		return
	case err != nil:
		t.Fatalf("reference inflates to %d bytes; kernel fails: %v", len(want), err)
	case consumed != len(src):
		t.Fatalf("kernel accepts %d bytes of input; the reference consumed %d", len(src), consumed)
	case !bytes.Equal(dst[:n], want):
		t.Fatalf("kernel output differs from the reference (%d vs %d bytes)", n, len(want))
	}

	// A destination of exactly the right size is enough (this is also the
	// checked loop on its own), one byte fewer is errDstFull.
	exact := make([]byte, len(want))
	if n, err := d.inflate(exact, src); err != nil || !bytes.Equal(exact[:n], want) {
		t.Fatalf("exact-fit destination: n=%d err=%v", n, err)
	}
	if len(want) > 0 {
		if _, err := d.inflate(exact[:len(want)-1], src); err != errDstFull {
			t.Fatalf("destination one byte short: err=%v, want errDstFull", err)
		}
	}
	// One byte more, whatever it is, is trailing input; one fewer is a
	// stream cut short.
	if _, err := d.inflate(dst, append(src[:len(src):len(src)], 0)); err != errInflateTrailing {
		t.Fatalf("one byte appended: err=%v, want errInflateTrailing", err)
	}
	if len(src) > 0 {
		if _, err := d.inflate(dst, src[:len(src)-1]); err == nil {
			t.Fatal("input cut one byte short: kernel succeeds")
		}
	}
}

// checkWriterStream holds the kernel to accepting what compress/flate
// writes, as well as to the reference on it.
func checkWriterStream(t testing.TB, d *inflater, src []byte) {
	t.Helper()
	want, _, err := referenceInflate(src)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(want))
	if n, err := d.inflate(dst, src); err != nil || n != len(want) {
		t.Fatalf("a stream compress/flate wrote: n=%d err=%v, want %d bytes", n, err, len(want))
	}
	checkInflate(t, d, src)
}

// pairStreams are long streams for the pair table: each has more than
// pairMinInput bytes after a dynamic header, so the unchecked loop reads
// literals through a pair table built for it.
func pairStreams(t testing.TB) map[string][]byte {
	raw := tierPackageFiles(t)["raw.banks"]
	m := map[string][]byte{"tier-file-huffman-only": deflateAt(t, flate.HuffmanOnly, raw)}
	{
		// The literal/length code is one one-bit literal: the pair table is
		// all pairs of it and gaps, and the first unowned bit is corrupt.
		var w bitWriter
		lit, _ := w.dynamicHeader(litLensFor(257, 'a', 1), []uint8{0})
		for i := 0; i < 10*pairMinInput; i++ {
			w.code(lit['a'], 1)
		}
		w.bits(1, 1)
		w.bits(0, 64)
		m["lone-one-bit-code"] = w.out
	}
	{
		// A block that ends on the code after a two-literal entry, then a
		// stored block long enough to keep the unchecked loop running.
		var w bitWriter
		lens := litLensFor(257, 'a', 1, 'b', 2, 'c', 3, 256, 3)
		lit, _ := w.dynamicHeader(lens, []uint8{0})
		w.out[0] &^= 1 // not the final block
		for i := 0; i < 4*pairMinInput; i++ {
			w.code(lit['a'], 1)
			w.code(lit['b'], 2)
		}
		w.code(lit[256], 3)
		w.bits(1, 1) // final
		w.bits(0, 2) // stored
		w.bits(0, (8-w.n)&7)
		tail := bytes.Repeat([]byte("stored after the pair "), 4)
		w.out = append(w.out, byte(len(tail)), 0, ^byte(len(tail)), 0xff)
		w.out = append(w.out, tail...)
		m["end-of-block-after-pair"] = w.out
	}
	{
		// Huffman blocks with stored ones between them — empty (Flush's
		// sync marker) and not (noise) — and a last Huffman block too short
		// for a pair table of its own, after one that had one.
		text := seededText(rand.New(rand.NewSource(31)), 12<<10)
		noise := make([]byte, 6<<10)
		rand.New(rand.NewSource(37)).Read(noise)
		var buf bytes.Buffer
		zw, err := flate.NewWriter(&buf, flate.BestSpeed)
		if err != nil {
			t.Fatal(err)
		}
		for _, part := range [][]byte{text, noise, raw[:12<<10], text[:1000]} {
			if _, err := zw.Write(part); err != nil {
				t.Fatal(err)
			}
			if err := zw.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		m["stored-between-huffman"] = buf.Bytes()
	}
	return m
}

func FuzzInflateMatchesFlate(f *testing.F) {
	for _, s := range namedStreams(f) {
		f.Add(s)
	}
	for _, s := range pairStreams(f) {
		f.Add(s)
	}
	rng := rand.New(rand.NewSource(3))
	noise := make([]byte, 4096)
	rng.Read(noise)
	for _, level := range []int{flate.BestSpeed, flate.DefaultCompression, flate.HuffmanOnly, flate.NoCompression} {
		f.Add(deflateAt(f, level, compressiblePayload(5000)))
		f.Add(deflateAt(f, level, noise))
	}
	d := new(inflater)
	f.Fuzz(func(t *testing.T, src []byte) {
		checkInflate(t, d, src)
	})
}

func TestInflateNamedStreams(t *testing.T) {
	d, streams := new(inflater), namedStreams(t)
	for name, s := range streams {
		t.Run(name, func(t *testing.T) {
			checkInflate(t, d, s)
			// Every proper prefix too: a cut lands in every field.
			for cut := 0; cut < len(s); cut++ {
				checkInflate(t, d, s[:cut])
			}
		})
	}
	// The named streams must include both verdicts, or the table proves
	// less than it says; the valid ones, written by compress/flate or by
	// hand with zero padding, the kernel accepts too.
	for name, wantErr := range map[string]bool{
		"single-code-distance-tree": false, "single-code-literal-tree": false,
		"fixed-overlapping-match": false, "fifteen-bit-codes": false, "stored-empty": false,
		"stored": false, "huffman-only": false, "dynamic": false, "fixed": false,
		"single-code-distance-tree-unowned": true, "no-end-of-block-code": true,
		"distance-one-past-start": true, "hlit-287": true, "hdist-31": true,
		"repeat-with-no-previous-length": true, "empty-input": true,
	} {
		if _, _, err := referenceInflate(streams[name]); (err != nil) != wantErr {
			t.Errorf("%s: reference err=%v, want error %v", name, err, wantErr)
		} else if !wantErr {
			checkWriterStream(t, d, streams[name])
		}
	}
}

func TestInflatePairStreams(t *testing.T) {
	d := new(inflater)
	for name, s := range pairStreams(t) {
		t.Run(name, func(t *testing.T) {
			d.src, d.pos, d.bb, d.bc = s, 0, 0, 0
			if hdr, err := d.take(3); err != nil || hdr>>1 != 2 {
				t.Fatalf("first block header %d (%v), want a dynamic block", hdr, err)
			}
			if pairs, err := d.dynamicHeader(); err != nil || pairs == nil {
				t.Fatalf("first block: pair table %v, err %v; the stream proves less than it says", pairs != nil, err)
			}
			if name == "lone-one-bit-code" {
				checkInflate(t, d, s)
			} else {
				checkWriterStream(t, d, s)
			}
			// Cut where the pair table's input threshold falls, too.
			for _, cut := range []int{pairMinInput - 1, pairMinInput, pairMinInput + 1, 2 * pairMinInput, len(s) - 1} {
				if cut < len(s) {
					checkInflate(t, d, s[:cut])
				}
			}
		})
	}
}

// pairReference is what a pair table entry must say about the bits of j:
// the literals that decoding them one symbol at a time with the
// literal/length table yields before anything else, at most two, and the
// bits they take — none of those bits past the index.
func pairReference(d *inflater, lit *litTable, j uint32) (lits []byte, n uint) {
	d.src, d.bb, d.bc = nil, uint64(j), pairBits
	for len(lits) < 2 {
		e, err := d.sym(lit[:], litBits)
		if err != nil || e&entLit == 0 {
			break
		}
		lits, n = append(lits, byte(e>>entValShift)), pairBits-d.bc
	}
	return lits, n
}

// checkPairTable holds every entry of a pair table to pairReference, and
// returns how many hold two literals.
func checkPairTable(t *testing.T, pairs *pairTable, lit *litTable) (twos int) {
	t.Helper()
	d := new(inflater)
	for j, e := range pairs {
		want, wantN := pairReference(d, lit, uint32(j))
		var got []byte
		if e != 0 {
			got = []byte{byte(e >> entValShift)}
			if e&entPair != 0 {
				got = append(got, byte(e>>entPairShift))
				twos++
			}
		}
		if !bytes.Equal(got, want) || e != 0 && (uint(e&63) != wantN || e&0xff70 != entLit) {
			t.Fatalf("entry %#03x = %#08x: literals %q in %d bits, want %q in %d bits (and only entLit and entPair among the flags)",
				j, e, got, e&63, want, wantN)
		}
	}
	return twos
}

// randomCode returns code lengths for n of nsym symbols that make a
// complete code of at most 15 bits: leaves split at random, then dealt out.
func randomCode(rng *rand.Rand, nsym, n int) []uint8 {
	leaves := []uint8{0}
	for len(leaves) < n {
		i := rng.Intn(len(leaves))
		if leaves[i] == 15 {
			continue
		}
		leaves[i]++
		leaves = append(leaves, leaves[i])
	}
	lens := make([]uint8, nsym)
	for i, s := range rng.Perm(nsym)[:n] {
		lens[s] = leaves[i]
	}
	return lens
}

func TestPairTableMatchesSingleDecode(t *testing.T) {
	codes := map[string][]uint8{}
	// The fixed code, though a fixed block goes without a pair table: its
	// literals are eight and nine bits long, so no entry holds two.
	fixed := fixedLitLens()
	codes["fixed"] = fixed[:]
	// One literal of every length from 1 to 15, and the end of block.
	every := litLensFor(257, 256, 15)
	for l := 1; l <= 15; l++ {
		every['a'+l-1] = uint8(l)
	}
	codes["a-literal-of-every-length"] = every
	// Short codes, then 240 eleven-bit and 32 twelve-bit codes.
	long := litLensFor(286, 'a', 1, 'b', 2, 'c', 3)
	left := 240 + 32
	for s := range long {
		if long[s] == 0 && left > 0 {
			long[s] = 11
			if left <= 32 {
				long[s] = 12
			}
			left--
		}
	}
	codes["eleven-and-twelve-bit-literals"] = long
	codes["lone-one-bit-literal"] = litLensFor(257, 'a', 1)
	codes["no-literals"] = litLensFor(258, 256, 1, 257, 1)
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 40; i++ {
		codes[fmt.Sprintf("random-%02d", i)] = randomCode(rng, 286, 2+rng.Intn(285))
	}
	for name, lens := range codes {
		t.Run(name, func(t *testing.T) {
			var lit litTable
			var pairs pairTable
			for j := range pairs {
				pairs[j] = ^uint32(0) // what an earlier block left
			}
			if !buildTable(lit[:], litBits, lens, litSyms[:]) {
				t.Fatal("not a code")
			}
			buildPairs(&pairs, &lit, lens)
			if name == "no-literals" {
				if pairs != (pairTable{}) {
					t.Fatal("a code without literals has pair entries")
				}
				return
			}
			twos := checkPairTable(t, &pairs, &lit)
			switch {
			case name == "fixed" && twos != 0:
				t.Fatalf("%d entries of the fixed code hold two literals", twos)
			case name != "fixed" && !strings.HasPrefix(name, "random") && twos == 0:
				t.Fatal("no entry holds two literals: the code proves less than it says")
			}
		})
	}

	// And the tables dynamicHeader builds for real blocks.
	text := seededText(rand.New(rand.NewSource(29)), 40<<10)
	raw := tierPackageFiles(t)["raw.banks"]
	for name, data := range map[string][]byte{"raw-banks": raw, "capsule-text": text} {
		for lname, level := range map[string]int{"BestSpeed": flate.BestSpeed, "HuffmanOnly": flate.HuffmanOnly} {
			t.Run(name+"/"+lname, func(t *testing.T) {
				d := new(inflater)
				d.src = deflateAt(t, level, data)
				if hdr, err := d.take(3); err != nil || hdr>>1 != 2 {
					t.Fatalf("first block header %d (%v), want a dynamic block", hdr, err)
				}
				pairs, err := d.dynamicHeader()
				if err != nil || pairs == nil {
					t.Fatalf("pair table %v, err %v", pairs != nil, err)
				}
				if checkPairTable(t, pairs, &d.lit) == 0 {
					t.Fatal("no entry holds two literals")
				}
			})
		}
	}
}

// tierPackageFiles generates the files of a small tier package — RAW banks
// and the RECO event file they reconstruct to, plus their JSON sidecar —
// with the byte statistics of the real tiers.
func tierPackageFiles(t testing.TB) map[string][]byte {
	t.Helper()
	const seed, events = 17, 60
	det := detector.Standard()
	db := conditions.NewDB()
	if err := conditions.SeedStandard(db, "t", 1, 10, 10, seed); err != nil {
		t.Fatal(err)
	}
	full, rec, cond := sim.NewFullSim(det, seed), reco.New(det), db.Snapshot("t", 1)
	gen := generator.NewDrellYanZ(generator.DefaultConfig(seed))
	var raws []*rawdata.Event
	var recos []*datamodel.Event
	for i := 0; i < events; i++ {
		raw := rawdata.Digitize(1, full.Simulate(gen.Generate()))
		ev, err := rec.Reconstruct(raw, cond)
		if err != nil {
			t.Fatal(err)
		}
		raws, recos = append(raws, raw), append(recos, ev)
	}
	var rawBuf, recoBuf bytes.Buffer
	if err := rawdata.WriteFile(&rawBuf, raws); err != nil {
		t.Fatal(err)
	}
	if _, err := datamodel.WriteEvents(&recoBuf, datamodel.TierRECO, recos); err != nil {
		t.Fatal(err)
	}
	sidecar := fmt.Sprintf(`{"events":%d,"raw_bytes":%d,"reco_bytes":%d,"conditions":"t"}`, events, rawBuf.Len(), recoBuf.Len())
	return map[string][]byte{"raw.banks": rawBuf.Bytes(), "reco.edm": recoBuf.Bytes(), "provenance.json": []byte(sidecar)}
}

// capsulePackageFiles is six small files of seeded analysis-like text.
func capsulePackageFiles() map[string][]byte {
	rng := rand.New(rand.NewSource(29))
	files := make(map[string][]byte)
	for f := 0; f < 6; f++ {
		files[fmt.Sprintf("capsule/part-%d.txt", f)] = seededText(rng, 1<<10+rng.Intn(39<<10))
	}
	return files
}

func TestInflatePackageFiles(t *testing.T) {
	files := tierPackageFiles(t)
	for name, data := range capsulePackageFiles() {
		files[name] = data
	}
	levels := map[string]int{"BestSpeed": flate.BestSpeed, "DefaultCompression": flate.DefaultCompression,
		"BestCompression": flate.BestCompression, "HuffmanOnly": flate.HuffmanOnly, "NoCompression": flate.NoCompression}
	d := new(inflater)
	for name, data := range files {
		for lname, level := range levels {
			t.Run(name+"/"+lname, func(t *testing.T) {
				for _, cut := range []int{len(data), 0, 1, 1000, 65536} {
					if cut <= len(data) {
						checkWriterStream(t, d, deflateAt(t, level, data[:cut]))
					}
				}
				// A truncated stream, not just a stream of truncated data.
				z := deflateAt(t, level, data)
				for _, cut := range []int{0, 1, 1000, 65536} {
					if cut < len(z) {
						checkInflate(t, d, z[:cut])
					}
				}
			})
		}
	}
}

var benchSink int

// BenchmarkInflate is the kernel against the reference on a tier file at
// the level the store writes — one long run of literals — and the kernel
// alone on capsule text, which is mostly matches, whole and cut to a small
// file's 4 KiB.
func BenchmarkInflate(b *testing.B) {
	raw := tierPackageFiles(b)["raw.banks"]
	z := deflateAt(b, flate.BestSpeed, raw)
	text := seededText(rand.New(rand.NewSource(29)), 40<<10)
	kernel := func(data []byte) func(*testing.B) {
		z := deflateAt(b, flate.BestSpeed, data)
		return func(b *testing.B) {
			d, dst := new(inflater), make([]byte, len(data))
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n, err := d.inflate(dst, z)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = n
			}
		}
	}
	b.Run("kernel", kernel(raw))
	b.Run("capsule-text", kernel(text))
	b.Run("small", kernel(text[:4<<10]))
	b.Run("compress-flate", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		for i := 0; i < b.N; i++ {
			out, err := io.ReadAll(flate.NewReader(bytes.NewReader(z)))
			if err != nil {
				b.Fatal(err)
			}
			benchSink = len(out)
		}
	})
}
