package cas

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
)

// A memory-to-memory raw-DEFLATE (RFC 1951) encoder: payload []byte in,
// caller-supplied []byte out. For any payload it writes exactly the stream
// compress/flate's BestSpeed writer emits for one Write of the payload and
// a Close, so the stored form is a function of this code and not of the Go
// toolchain (FuzzDeflateMatchesFlate holds it to that, stdlib as the
// reference). What it reproduces:
//
//   - blocks of maxStoreBlock bytes, the last one the remainder;
//   - per block, the Snappy-style matcher: a 1<<matchTableBits-entry hash
//     table of the last position seen for each 4-byte hash, its skip
//     heuristic over unmatched input, matches of 4 to 258 bytes reaching
//     back up to 32 KiB, into the previous block too;
//   - a block whose matches remove less than 1/16 of its tokens is written
//     Huffman-only; a final block of at most 16 bytes is stored and one of
//     17 to 127 bytes is written Huffman-only without matching;
//   - the dynamic code of each block, built as compress/flate builds it
//     (its length-limited bit counts over symbols ordered by frequency,
//     then symbol), and the stored block in its place when that is not
//     1/16 longer;
//   - an empty final stored block.
//
// What it does not reproduce is how compress/flate gets there: matches are
// recorded as literal runs, not one token per byte; histograms are built
// four ways; codes are written three or four at a time through a 64-bit
// bit buffer flushed eight bytes at a time without a branch; the previous
// block is read where it lies in the payload; and the stream is written
// straight into the caller's buffer, abandoned as soon as it cannot be
// shorter than the caller's limit.
const (
	// maxStoreBlock is the width of a block, and the longest stored one.
	maxStoreBlock  = 65535
	maxMatchOffset = 1 << 15

	matchTableBits = 14
	matchTableSize = 1 << matchTableBits
	// matchMargin is how close to a block's end the matcher stops looking
	// for matches.
	matchMargin = 15
	// offsetReset bounds the running offset: at or past it, the table's
	// offsets are shifted down before a block starts, so no offset within
	// a block overflows int32.
	offsetReset = math.MaxInt32 - 2*maxStoreBlock

	// deflateSlack is the room past a stream's end that the bit writer may
	// store into: it flushes eight bytes at a time.
	deflateSlack = 8

	numLitLen  = 286
	numDist    = 30
	endOfBlock = 256
	// cgEnd ends a run-length coded code-length list.
	cgEnd = 255
)

// Length symbols by match length minus three, and distance symbols by
// distance minus one (those at or above 256 at 256 + (d-1)>>7), with each
// symbol's base and extra-bit count. Filled once at start-up.
var (
	lenSym    [256]uint8
	lenBase   [29]uint16
	lenExtra  [29]uint8
	distSym   [512]uint8
	distBase  [numDist]uint16
	distExtra [numDist]uint8
)

func init() {
	base := 0
	for s := range 28 {
		x := 0
		if s >= 8 {
			x = (s - 4) / 4
		}
		lenBase[s], lenExtra[s] = uint16(base), uint8(x)
		for j := range 1 << x {
			lenSym[base+j] = uint8(s)
		}
		base += 1 << x
	}
	lenBase[28], lenSym[255] = 255, 28 // 258 has a symbol of its own
	base = 0
	for s := range numDist {
		x := 0
		if s >= 4 {
			x = (s - 2) / 2
		}
		distBase[s], distExtra[s] = uint16(base), uint8(x)
		for d := base; d < base+1<<x; d++ {
			if d < 256 {
				distSym[d] = uint8(s)
			}
			if d&127 == 0 {
				distSym[256+d>>7] = uint8(s)
			}
		}
		base += 1 << x
	}
}

// distSymOf returns the symbol of distance d+1.
func distSymOf(d uint32) uint32 {
	if d < 256 {
		return uint32(distSym[d])
	}
	return uint32(distSym[256+d>>7&255])
}

type matchEntry struct {
	val    uint32 // the four bytes at the position
	offset int32  // the position, as cur + its place in its block
}

// seq is a literal run and the match after it.
type seq struct {
	lit  uint32 // literals before the match
	xlen uint16 // match length minus 3
	xoff uint16 // distance minus 1
}

// deflater is the encoder's state, reused from payload to payload: nothing
// but the match table's offsets carries over, and those only ever point
// more than maxMatchOffset behind the next payload.
type deflater struct {
	table [matchTableSize]matchEntry
	// cur is the running offset of the block being matched.
	cur int32

	seqs []seq // the block's matches, after their literal runs

	hist     [4][256]uint32
	litFreq  [numLitLen]uint32
	distFreq [numDist]uint32
	cgFreq   [19]uint32

	// Code lengths, and codes packed as bits<<8 | length.
	litLens  [numLitLen]uint8
	distLens [numDist]uint8
	cgLens   [19]uint8
	litCodes [numLitLen]uint32
	// lenCodes is each match length's symbol code followed by its extra
	// bits, packed the same way.
	lenCodes  [256]uint32
	distCodes [numDist]uint32
	cgCodes   [19]uint32

	cg   [numLitLen + numDist + 1]uint8 // run-length coded code lengths
	keys [numLitLen]uint32              // freq<<9 | symbol, for sorting
	// bitCounts' scratch: the leaves' and packages' weights, two levels'
	// lists and where they put each package, and each level's leaf counts
	// by list prefix. A level's list is shorter than twice the symbols.
	pmLeaves       [numLitLen + 1]int32
	pmPackages     [numLitLen + 1]int32
	pmLists        [2][2 * numLitLen]int32
	pmLeavesBefore [16][2 * numLitLen]uint16
	pmAt           [2][numLitLen + 1]uint16

	// The bit writer: bits are written LSB first into out at pos; limit is
	// the length the stream must stay under.
	out   []byte
	pos   int
	bits  uint64
	nbits uint
	limit int

	// buf holds the flat stored form encodeBlob writes.
	buf []byte
}

func newDeflater() *deflater {
	// The zero table's entries lie more than maxMatchOffset behind the
	// first block.
	return &deflater{cur: maxMatchOffset + 1, seqs: make([]seq, 0, maxStoreBlock/4+1)}
}

// encodeBlob returns the marker-framed stored form of a payload: deflate
// when that is shorter than the payload, verbatim otherwise.
func (e *deflater) encodeBlob(data []byte) []byte {
	need := 1 + len(data) + deflateSlack
	if cap(e.buf) < need {
		e.buf = make([]byte, need)
	}
	n := e.storedForm(e.buf[:need], data)
	return append([]byte(nil), e.buf[:n]...)
}

// storedForm writes data's marker-framed stored form at the start of dst,
// which holds at least 1+len(data)+deflateSlack bytes, and returns its
// length.
func (e *deflater) storedForm(dst, data []byte) int {
	if len(data) >= minCompressSize {
		if n, ok := e.deflate(dst[1:1+len(data)+deflateSlack], data); ok {
			dst[0] = blobDeflate
			return 1 + n
		}
	}
	dst[0] = blobRaw
	return 1 + copy(dst[1:], data)
}

// deflate writes data's deflate stream at the start of dst and returns its
// length, with ok true, when that is under len(dst)-deflateSlack bytes.
// Otherwise ok is false, and the stream is given up as soon as it is
// known to be too long.
func (e *deflater) deflate(dst, data []byte) (n int, ok bool) {
	e.out, e.pos, e.bits, e.nbits, e.limit = dst, 0, 0, 0, len(dst)-deflateSlack
	// No match reaches back into an earlier payload.
	e.cur += maxMatchOffset
	if e.cur >= offsetReset {
		e.shiftOffsets()
	}
	for lo := 0; lo < len(data); lo += maxStoreBlock {
		blk := data[lo:min(lo+maxStoreBlock, len(data))]
		switch {
		case len(blk) <= 16:
			ok = e.storedBlock(blk)
		case len(blk) < 128:
			ok = e.huffBlock(blk)
		default:
			ok = e.matchedBlock(data, lo, len(blk))
		}
		if !ok {
			return 0, false
		}
	}
	// The final block: empty and stored.
	if e.storedBytes(0) >= e.limit {
		return 0, false
	}
	e.storedHeader(1, 0)
	return e.pos, true
}

// shiftOffsets moves the table's offsets down so that cur becomes
// maxMatchOffset+1, clamping those out of reach at zero.
func (e *deflater) shiftOffsets() {
	for i := range e.table {
		e.table[i].offset = max(e.table[i].offset-e.cur+maxMatchOffset+1, 0)
	}
	e.cur = maxMatchOffset + 1
}

func hash4(u uint32) uint32 { return (u * 0x1e35a7bd) >> (32 - matchTableBits) }

// matchedBlock matches the n-byte block at data[lo:] and writes it
// Huffman-only or with its matches, whichever compress/flate would.
func (e *deflater) matchedBlock(data []byte, lo, n int) bool {
	if e.cur >= offsetReset {
		e.shiftOffsets()
	}
	lits := e.match(data, lo, n)
	e.cur += int32(n)
	if lits+len(e.seqs) > n-n>>4 {
		return e.huffBlock(data[lo : lo+n])
	}
	return e.dynamicBlock(data[lo : lo+n])
}

// match records the block data[lo:lo+n] as literal runs and matches in
// e.seqs, and returns its literal count, the run after the last match
// included. Positions are relative to the block; a candidate before it
// lies in the previous block, which data holds just before it.
func (e *deflater) match(data []byte, lo, n int) (lits int) {
	src := data[lo : lo+n]
	e.seqs = e.seqs[:0]
	cur, table := e.cur, &e.table
	sLimit := int32(n - matchMargin)
	nextEmit, s := int32(0), int32(0)
	cv := binary.LittleEndian.Uint32(src)
	for {
		var cand matchEntry
		var found bool
		if s, cand, found = search(table, src, s, sLimit, cur, cv); !found {
			goto remainder
		}
		lit := s - nextEmit
		for {
			// A four-byte match at s: extend it, up to 258 bytes and not
			// past the block.
			t := cand.offset - cur
			l := matchLen(data, lo+int(s)+4, lo+int(t)+4, lo+min(int(s)+maxMatch, n))
			e.seqs = append(e.seqs, seq{lit: uint32(lit), xlen: uint16(l + 1), xoff: uint16(s - t - 1)})
			lits += int(lit)
			lit = 0
			s += int32(l) + 4
			nextEmit = s
			if s >= sLimit {
				goto remainder
			}
			// Enter s-1 and s, and try s for the next match at once.
			x := binary.LittleEndian.Uint64(src[s-1:])
			table[hash4(uint32(x))&(matchTableSize-1)] = matchEntry{val: uint32(x), offset: cur + s - 1}
			x >>= 8
			h := hash4(uint32(x)) & (matchTableSize - 1)
			cand = table[h]
			table[h] = matchEntry{val: uint32(x), offset: cur + s}
			if s+cur-cand.offset > maxMatchOffset || uint32(x) != cand.val {
				cv = uint32(x >> 8)
				s++
				break
			}
		}
	}
remainder:
	return lits + n - int(nextEmit)
}

// search looks for a four-byte match from s on, cv holding the four bytes
// at s, entering each position it looks at: at every byte until 32 go by
// without a match, then at every second, and so on. It returns the match's
// position and candidate, or found false once it passes sLimit. It is a
// function of its own so that its loop keeps its state in registers.
func search(table *[matchTableSize]matchEntry, src []byte, s, sLimit, cur int32, cv uint32) (int32, matchEntry, bool) {
	nextHash := hash4(cv)
	skip := int32(32)
	nextS := s
	for {
		s = nextS
		step := skip >> 5
		nextS = s + step
		skip += step
		if nextS > sLimit {
			return 0, matchEntry{}, false
		}
		cand := table[nextHash&(matchTableSize-1)]
		now := binary.LittleEndian.Uint32(src[nextS:])
		table[nextHash&(matchTableSize-1)] = matchEntry{val: cv, offset: s + cur}
		nextHash = hash4(now)
		if s+cur-cand.offset <= maxMatchOffset && cv == cand.val {
			return s, cand, true
		}
		cv = now
	}
}

// matchLen returns how many bytes from data[a] on equal those from
// data[b] on, b < a, counting no further than end.
func matchLen(data []byte, a, b, end int) int {
	n := 0
	for a+n+8 <= end {
		if x := binary.LittleEndian.Uint64(data[a+n:]) ^ binary.LittleEndian.Uint64(data[b+n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
		n += 8
	}
	for a+n < end && data[a+n] == data[b+n] {
		n++
	}
	return n
}

// histogram adds b's bytes to the four-way histogram.
func (e *deflater) histogram(b []byte) {
	h := &e.hist
	for ; len(b) >= 8; b = b[8:] {
		x := binary.LittleEndian.Uint64(b)
		h[0][uint8(x)]++
		h[1][uint8(x>>8)]++
		h[2][uint8(x>>16)]++
		h[3][uint8(x>>24)]++
		h[0][uint8(x>>32)]++
		h[1][uint8(x>>40)]++
		h[2][uint8(x>>48)]++
		h[3][uint8(x>>56)]++
	}
	for _, c := range b {
		h[0][c]++
	}
}

// sumHistogram moves the four-way histogram into the literal frequencies
// and clears it.
func (e *deflater) sumHistogram() {
	h := &e.hist
	for i := range 256 {
		e.litFreq[i] = h[0][i] + h[1][i] + h[2][i] + h[3][i]
	}
	clear(h[:])
}

// huffBlock writes src as one block of literals, or stored when that is
// not 1/16 longer.
func (e *deflater) huffBlock(src []byte) bool {
	e.histogram(src)
	e.sumHistogram()
	clear(e.litFreq[256:])
	e.litFreq[endOfBlock] = 1
	e.buildCode(e.litFreq[:], 15, e.litLens[:], e.litCodes[:])
	// The one distance code every block declares, of length one.
	e.distLens[0] = 1
	e.codegen(257, 1)
	header, numCodegens := e.headerBits()
	size := header + bitLength(e.litFreq[:], e.litLens[:]) + 1
	if (len(src)+5)*8 < size+size>>4 {
		return e.storedBlock(src)
	}
	// compress/flate counts the distance code's bit; it writes none.
	if (e.bitPos()+size-1+7)/8 >= e.limit {
		return false
	}
	e.dynamicHeader(257, 1, numCodegens)
	out, pos, bb, nb := e.out, e.pos, e.bits, e.nbits
	pos, bb, nb = putLiterals(out, pos, bb, nb, &e.litCodes, src, e.fitsFour())
	e.pos, e.bits, e.nbits = pos, bb, nb
	e.put(e.litCodes[endOfBlock])
	return true
}

// dynamicBlock writes the matched block src with its own code, or stored
// when that is not 1/16 longer.
func (e *deflater) dynamicBlock(src []byte) bool {
	clear(e.distFreq[:])
	clear(e.litFreq[256:])
	p := 0
	for _, q := range e.seqs {
		e.histogram(src[p : p+int(q.lit)])
		p += int(q.lit) + int(q.xlen) + 3
		e.litFreq[257+int(lenSym[q.xlen])]++
		e.distFreq[distSymOf(uint32(q.xoff))]++
	}
	e.histogram(src[p:])
	e.sumHistogram()
	e.litFreq[endOfBlock] = 1

	numLit := numLitLen
	for e.litFreq[numLit-1] == 0 {
		numLit--
	}
	numDists, phantom := numDist, 0
	for numDists > 0 && e.distFreq[numDists-1] == 0 {
		numDists--
	}
	if numDists == 0 {
		// Every block declares a distance code.
		e.distFreq[0], numDists, phantom = 1, 1, 1
	}
	e.buildCode(e.litFreq[:], 15, e.litLens[:], e.litCodes[:])
	e.buildCode(e.distFreq[:], 15, e.distLens[:], e.distCodes[:])
	e.codegen(numLit, numDists)
	header, numCodegens := e.headerBits()
	size := header + bitLength(e.litFreq[:], e.litLens[:]) + bitLength(e.distFreq[:], e.distLens[:])
	if (len(src)+5)*8 < size+size>>4 {
		return e.storedBlock(src)
	}
	extra := 0
	for s := 8; s < 29; s++ {
		extra += int(e.litFreq[257+s]) * int(lenExtra[s])
	}
	for s := 4; s < numDist; s++ {
		extra += int(e.distFreq[s]) * int(distExtra[s])
	}
	if (e.bitPos()+size+extra-phantom+7)/8 >= e.limit {
		return false
	}
	e.dynamicHeader(numLit, numDists, numCodegens)
	four := e.fitsFour()
	for x := range e.lenCodes {
		s := lenSym[x]
		c := e.litCodes[257+int(s)]
		e.lenCodes[x] = (c>>8|uint32(x-int(lenBase[s]))<<(c&0xff))<<8 | (c&0xff + uint32(lenExtra[s]))
	}

	out, pos, bb, nb := e.out, e.pos, e.bits, e.nbits
	p = 0
	for _, q := range e.seqs {
		pos, bb, nb = putLiterals(out, pos, bb, nb, &e.litCodes, src[p:p+int(q.lit)], four)
		p += int(q.lit) + int(q.xlen) + 3
		// Length then distance, each code followed by its extra bits: at
		// most 20 and 28 bits.
		lc := e.lenCodes[q.xlen]
		bb |= uint64(lc>>8) << (nb & 63)
		nb += uint(lc & 0xff)
		d := uint32(q.xoff)
		ds := distSymOf(d)
		dc := e.distCodes[ds]
		dl := uint(dc & 0xff)
		bb |= (uint64(dc>>8) | uint64(d-uint32(distBase[ds]))<<dl) << (nb & 63)
		nb += dl + uint(distExtra[ds])
		binary.LittleEndian.PutUint64(out[pos:], bb)
		pos += int(nb >> 3)
		bb >>= (nb &^ 7) & 63
		nb &= 7
	}
	pos, bb, nb = putLiterals(out, pos, bb, nb, &e.litCodes, src[p:], four)
	e.pos, e.bits, e.nbits = pos, bb, nb
	e.put(e.litCodes[endOfBlock])
	return true
}

// fitsFour reports whether four literal codes fit the bit buffer at once:
// 4×14 bits and the at most 7 a flush leaves make 63.
func (e *deflater) fitsFour() bool {
	longest := uint8(0)
	for _, l := range e.litLens[:256] {
		longest = max(longest, l)
	}
	return longest <= 14
}

// putLiterals writes the literal codes of lits, flushing whole bytes after
// every three or four, and returns the writer's state. It needs at most 7
// bits pending on entry and leaves at most 7.
func putLiterals(out []byte, pos int, bb uint64, nb uint, codes *[numLitLen]uint32, lits []byte, four bool) (int, uint64, uint) {
	i := 0
	if four {
		for ; i+4 <= len(lits); i += 4 {
			q := lits[i : i+4 : i+4]
			c0, c1, c2, c3 := codes[q[0]], codes[q[1]], codes[q[2]], codes[q[3]]
			bb |= uint64(c0>>8) << (nb & 63)
			nb += uint(c0 & 0xff)
			bb |= uint64(c1>>8) << (nb & 63)
			nb += uint(c1 & 0xff)
			bb |= uint64(c2>>8) << (nb & 63)
			nb += uint(c2 & 0xff)
			bb |= uint64(c3>>8) << (nb & 63)
			nb += uint(c3 & 0xff)
			binary.LittleEndian.PutUint64(out[pos:], bb)
			pos += int(nb >> 3)
			bb >>= (nb &^ 7) & 63
			nb &= 7
		}
	} else {
		for ; i+3 <= len(lits); i += 3 {
			q := lits[i : i+3 : i+3]
			c0, c1, c2 := codes[q[0]], codes[q[1]], codes[q[2]]
			bb |= uint64(c0>>8) << (nb & 63)
			nb += uint(c0 & 0xff)
			bb |= uint64(c1>>8) << (nb & 63)
			nb += uint(c1 & 0xff)
			bb |= uint64(c2>>8) << (nb & 63)
			nb += uint(c2 & 0xff)
			binary.LittleEndian.PutUint64(out[pos:], bb)
			pos += int(nb >> 3)
			bb >>= (nb &^ 7) & 63
			nb &= 7
		}
	}
	// At most three left: 45 bits.
	for _, c := range lits[i:] {
		cc := codes[c]
		bb |= uint64(cc>>8) << (nb & 63)
		nb += uint(cc & 0xff)
	}
	binary.LittleEndian.PutUint64(out[pos:], bb)
	pos += int(nb >> 3)
	bb >>= (nb &^ 7) & 63
	nb &= 7
	return pos, bb, nb
}

// bitPos is the length of the stream so far in bits.
func (e *deflater) bitPos() int { return e.pos*8 + int(e.nbits) }

// put writes one packed code (bits<<8 | length, at most 56 bits).
func (e *deflater) put(c uint32) { e.putBits(uint64(c>>8), uint(c&0xff)) }

// putBits writes the n low bits of v, n at most 56.
func (e *deflater) putBits(v uint64, n uint) {
	e.bits |= v << (e.nbits & 63)
	e.nbits += n
	binary.LittleEndian.PutUint64(e.out[e.pos:], e.bits)
	e.pos += int(e.nbits >> 3)
	e.bits >>= (e.nbits &^ 7) & 63
	e.nbits &= 7
}

// storedBytes is the stream's length after a stored block of n bytes.
func (e *deflater) storedBytes(n int) int { return (e.bitPos()+3+7)/8 + 4 + n }

// storedHeader writes a stored block's header: the 3-bit block header
// (final or not), padding to a byte, and the length with its complement.
func (e *deflater) storedHeader(final uint64, n int) {
	e.putBits(final, 3)
	if e.nbits > 0 {
		e.pos++
		e.bits, e.nbits = 0, 0
	}
	binary.LittleEndian.PutUint16(e.out[e.pos:], uint16(n))
	binary.LittleEndian.PutUint16(e.out[e.pos+2:], ^uint16(n))
	e.pos += 4
}

// storedBlock writes src as a stored block that is not the last.
func (e *deflater) storedBlock(src []byte) bool {
	if e.storedBytes(len(src)) >= e.limit {
		return false
	}
	e.storedHeader(0, len(src))
	e.pos += copy(e.out[e.pos:], src)
	return true
}

// bitLength is the length in bits of the symbols freq counts, coded with
// lens.
func bitLength(freq []uint32, lens []uint8) int {
	n := 0
	for i, f := range freq {
		n += int(f) * int(lens[i])
	}
	return n
}

// codegen run-length codes the first numLit literal/length code lengths
// and the first numDists distance code lengths into e.cg, as compress/flate
// does, ending it with cgEnd, and counts its symbols into e.cgFreq, then
// builds their code.
func (e *deflater) codegen(numLit, numDists int) {
	clear(e.cgFreq[:])
	freq, cg := &e.cgFreq, e.cg[:]
	copy(cg, e.litLens[:numLit])
	copy(cg[numLit:], e.distLens[:numDists])
	cg[numLit+numDists] = cgEnd
	// The coding is in place: it never writes past what it has read.
	size, count, out := cg[0], 1, 0
	for in := 1; size != cgEnd; in++ {
		next := cg[in]
		if next == size {
			count++
			continue
		}
		if size != 0 {
			cg[out] = size
			out++
			freq[size]++
			count--
			for count >= 3 {
				n := min(6, count)
				cg[out], cg[out+1] = 16, uint8(n-3)
				out += 2
				freq[16]++
				count -= n
			}
		} else {
			for count >= 11 {
				n := min(138, count)
				cg[out], cg[out+1] = 18, uint8(n-11)
				out += 2
				freq[18]++
				count -= n
			}
			if count >= 3 {
				cg[out], cg[out+1] = 17, uint8(count-3)
				out += 2
				freq[17]++
				count = 0
			}
		}
		for count--; count >= 0; count-- {
			cg[out] = size
			out++
			freq[size]++
		}
		size, count = next, 1
	}
	cg[out] = cgEnd
	e.buildCode(e.cgFreq[:], 7, e.cgLens[:], e.cgCodes[:])
}

// headerBits is the length in bits of a dynamic block's header, and how
// many code-length code lengths it lists.
func (e *deflater) headerBits() (bits, numCodegens int) {
	numCodegens = len(codeOrder)
	for numCodegens > 4 && e.cgFreq[codeOrder[numCodegens-1]] == 0 {
		numCodegens--
	}
	bits = 3 + 5 + 5 + 4 + 3*numCodegens + bitLength(e.cgFreq[:], e.cgLens[:]) +
		int(e.cgFreq[16])*2 + int(e.cgFreq[17])*3 + int(e.cgFreq[18])*7
	return bits, numCodegens
}

// dynamicHeader writes the header of a dynamic block that is not the last.
func (e *deflater) dynamicHeader(numLit, numDists, numCodegens int) {
	e.putBits(2<<1, 3)
	e.putBits(uint64(numLit-257)|uint64(numDists-1)<<5|uint64(numCodegens-4)<<10, 14)
	for i := 0; i < numCodegens; i += 2 {
		v, n := uint64(e.cgLens[codeOrder[i]]), uint(3)
		if i+1 < numCodegens {
			v, n = v|uint64(e.cgLens[codeOrder[i+1]])<<3, 6
		}
		e.putBits(v, n)
	}
	for i := 0; e.cg[i] != cgEnd; i++ {
		c := e.cgCodes[e.cg[i]]
		v, n := uint64(c>>8), uint(c&0xff)
		switch e.cg[i] {
		case 16:
			i++
			v, n = v|uint64(e.cg[i])<<n, n+2
		case 17:
			i++
			v, n = v|uint64(e.cg[i])<<n, n+3
		case 18:
			i++
			v, n = v|uint64(e.cg[i])<<n, n+7
		}
		e.putBits(v, n)
	}
}

// buildCode sets lens and codes (packed bits<<8 | length, the bits
// reversed for LSB-first writing) to the code compress/flate builds for
// freq: for at most two symbols, one bit each; otherwise its
// length-limited bit counts over the symbols ordered by frequency, then
// symbol, the most frequent taking the shortest lengths, and canonical
// codes assigned in symbol order.
func (e *deflater) buildCode(freq []uint32, maxBits int32, lens []uint8, codes []uint32) {
	keys := e.keys[:0]
	for s, f := range freq {
		if f != 0 {
			keys = append(keys, f<<9|uint32(s))
		} else {
			lens[s] = 0
		}
	}
	if len(keys) <= 2 {
		for i, k := range keys {
			lens[k&511], codes[k&511] = 1, uint32(i)<<8|1
		}
		return
	}
	slices.Sort(keys)
	count := e.bitCounts(keys, maxBits)
	end := len(keys)
	for l := 1; l < len(count); l++ {
		for _, k := range keys[end-int(count[l]) : end] {
			lens[k&511] = uint8(l)
		}
		end -= int(count[l])
	}
	var next [16]uint16
	code := uint16(0)
	for l := 1; l < 16; l++ {
		code = (code + uint16(count[l-1])) << 1
		next[l] = code
	}
	for s, l := range lens[:len(freq)] {
		if l != 0 {
			codes[s] = uint32(bits.Reverse16(next[l]<<(16-l)))<<8 | uint32(l)
			next[l]++
		}
	}
}

// bitCounts returns how many of the sorted symbols (at least three, and
// at most 1<<maxBits) take each code length up to maxBits: what
// compress/flate's bitCounts returns, a boundary package-merge that builds
// each level's list of leaves and packages lazily, from the top, ties
// going to the package.
//
// Here the lists are built whole, from the bottom: level 1 holds the
// leaves, and level j merges them with the packages of level j-1's
// consecutive pairs. A level's merge repeats the one below it up to the
// first package that differs, so it is only redone from there; and once
// a level's weights equal those below it, every level above is that list
// too. The top level then selects its first 2n-2 items, and each level
// below the first 2p items, p the packages selected above it; a symbol's
// code length is the number of levels that select its leaf.
func (e *deflater) bitCounts(keys []uint32, maxBits int32) (count [16]int32) {
	n := len(keys)
	top := min(int(maxBits), n-1)
	// Weights end in a sentinel no weight reaches, so the merge needs no
	// bounds of its own; it takes the leaf only when it is lighter, and
	// without a branch.
	leaves := e.pmLeaves[:n+1]
	for i, k := range keys {
		leaves[i] = int32(k >> 9)
	}
	leaves[n] = math.MaxInt32
	pkgs := &e.pmPackages
	// pmLeavesBefore[j][k] counts the leaves among level j's first k
	// items; pmAt[j&1][i] is where level j put package i.
	below, diverged := leaves[:n], 0 // level 1, and where it differs from the level below it
	last := top                      // levels above it equal it
	for j := 2; j <= top; j++ {
		np := len(below) / 2
		list := e.pmLists[j&1][:n+np]
		before := e.pmLeavesBefore[j][:n+np+1]
		at := &e.pmAt[j&1]
		// Packages before q are the level below's, and so is its merge
		// until it meets package q.
		q, k0 := diverged/2, 0
		if q > 0 {
			k0 = int(e.pmAt[(j-1)&1][q-1]) + 1
			copy(list, below[:k0])
			copy(before, e.pmLeavesBefore[j-1][:k0+1])
			copy(at[:q], e.pmAt[(j-1)&1][:q])
		}
		for i := q; i < np; i++ {
			pkgs[i] = below[2*i] + below[2*i+1]
		}
		pkgs[np] = math.MaxInt32
		li, pi := int(before[k0]), q
		for k := k0; k < len(list); k++ {
			lw, pw := leaves[li], pkgs[pi]
			leaf := int(uint32(lw-pw) >> 31)
			list[k] = min(lw, pw)
			at[pi] = uint16(k)
			li += leaf
			pi += 1 - leaf
			before[k+1] = uint16(li)
		}
		d := k0
		for d < len(below) && list[d] == below[d] {
			d++
		}
		if d == len(list) {
			last = j
			break
		}
		below, diverged = list, d
	}
	var selected [16]int32 // the leaves each level selects
	m := 2*n - 2
	for j := top; j > 0 && m > 0; j-- {
		c := m
		if l := min(j, last); l > 1 {
			c = int(e.pmLeavesBefore[l][m])
		}
		selected[j] = int32(c)
		m = 2 * (m - c)
	}
	for j, b := top, 1; j > 0; j, b = j-1, b+1 {
		count[b] = selected[j] - selected[j-1]
	}
	return count
}
