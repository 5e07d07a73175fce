package cas

import (
	"encoding/binary"
	"errors"
	"io"
	"math/bits"
)

// A memory-to-memory raw-DEFLATE (RFC 1951) decoder: compressed []byte in,
// caller-supplied []byte out. It exists because every trust boundary
// inflates every blob, and compress/flate's io.Reader shape — a byte-at-a-
// time ReadByte, a 32 KiB window copied out through Read, ~40 KB of fresh
// state per NewReader — cost more than the SHA-256 the inflate feeds. Its
// twin in deflate.go writes the stored form. This decoder accepts what
// compress/flate's does, with the same output, but for what that encoder
// never writes: bytes after the final block, and set padding bits
// (FuzzInflateMatchesFlate holds it to that, stdlib as the reference).
//
// Decode tables hold packed uint32 entries indexed by the low bits of a
// 64-bit bit buffer (DEFLATE packs codes LSB-first, so codes are stored
// bit-reversed):
//
//	bits  0..3   code length in bits; 0 marks a bit pattern no code owns
//	bits  4..7   extra bits that follow the code (sub-table links: index width)
//	bit   8      entLit: value is a literal byte (or a code-length symbol)
//	bit   9      entEOB: end of block
//	bit  10      entSub: value is the offset of a sub-table for longer codes
//	bits 16..31  value: literal, match length base, distance base, or offset
//
// The literal/length table resolves codes of up to litBits bits in one
// lookup and the distance table codes of up to distBits; longer codes take a
// second lookup in a sub-table stored behind the primary entries.
//
// In front of them sits the pair table, which the unchecked loop reads
// first. Indexed by the next pairBits bits, an entry holds the one or two
// literals those bits begin with: their combined code length in bits 0..3,
// entLit, the first literal at bits 16..23 and, when entPair (bit 7) is
// set, the second at bits 24..31. Bits 4..6 are clear, so an entry is its
// own shift count. Zero means the bits begin with something else — a
// length, the end of block, a literal longer than pairBits — to be decoded
// through the literal/length table. A literal/length entry of a literal
// reads the same way, as a pair entry of one literal.
const (
	litBits  = 10
	distBits = 8
	preBits  = 7 // code-length codes are at most 7 bits: no sub-tables
	pairBits = 12

	// A primary entry links to a sub-table only when at least two codes
	// share its prefix (the code is complete), so 286 literal/length codes
	// make at most 143 sub-tables of at most 1<<(15-litBits) entries, and
	// 30 distance codes at most 15 of 1<<(15-distBits).
	litTableSize  = 1<<litBits + 143<<(15-litBits)
	distTableSize = 1<<distBits + 15<<(15-distBits)

	entLenMask   = 0xf
	entXShift    = 4
	entLit       = 1 << 8
	entEOB       = 1 << 9
	entSub       = 1 << 10
	entValShift  = 16
	entPairBit   = 7
	entPair      = 1 << entPairBit
	entPairShift = 24

	maxMatch = 258

	// fastInMargin is the input the unchecked loop needs ahead of it: two
	// eight-byte loads, the second up to seven bytes past the first.
	fastInMargin = 15
	// fastOutMargin is the room it needs in the destination: two pair
	// entries, each stored as two bytes, then a third or a maximal match
	// copied eight bytes at a time.
	fastOutMargin = 2*2 + maxMatch + 8

	// pairMinInput is the input that must lie past a dynamic block's
	// header for the block to get a pair table. Below it the block is short
	// and building the table costs more than it saves; its literals come
	// from the literal/length table, as a fixed block's do (the fixed
	// code's literals are eight and nine bits long, so no two fit a pair).
	pairMinInput = 4 << 10

	// maxInflateRatio bounds DEFLATE's expansion: a 258-byte match costs
	// at least one bit of length code and one of distance code.
	maxInflateRatio = 1032
)

var (
	errInflateCorrupt = errors.New("corrupt deflate stream")
	// Streams compress/flate reads but never writes.
	errInflateTrailing = errors.New("deflate stream has bytes after its final block")
	errInflatePadding  = errors.New("deflate stream has nonzero padding bits")
	// errDstFull reports that the stream inflates past the destination.
	// It is not a verdict on the stream: the caller may retry with room.
	errDstFull = errors.New("inflated data overflows its destination")
)

type (
	litTable  [litTableSize]uint32
	distTable [distTableSize]uint32
	pairTable [1 << pairBits]uint32
)

// Per-symbol entry templates (everything but the code length), and the
// tables of the fixed Huffman code. Filled once at start-up.
var (
	litSyms   [288]uint32
	distSyms  [32]uint32
	preSyms   [19]uint32
	fixedLit  litTable
	fixedDist distTable
)

var codeOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

func init() {
	for s := 0; s < 256; s++ {
		litSyms[s] = entLit | uint32(s)<<entValShift
	}
	litSyms[256] = entEOB
	// Length symbols 257..284: groups of four share an extra-bit count.
	// 285 is length 258 with no extra bits; 286 and 287 exist in the fixed
	// code but are invalid, and stay zero.
	base := uint32(3)
	for s := 257; s < 285; s++ {
		x := uint32(0)
		if s >= 265 {
			x = uint32(s-261) / 4
		}
		litSyms[s] = base<<entValShift | x<<entXShift
		base += 1 << x
	}
	litSyms[285] = maxMatch << entValShift
	// Distance symbols 0..29: pairs share an extra-bit count; 30 and 31
	// are invalid.
	base = 1
	for s := 0; s < 30; s++ {
		x := uint32(0)
		if s >= 4 {
			x = uint32(s-2) / 2
		}
		distSyms[s] = base<<entValShift | x<<entXShift
		base += 1 << x
	}
	for s := range preSyms {
		preSyms[s] = entLit | uint32(s)<<entValShift
	}

	lens := fixedLitLens()
	buildTable(fixedLit[:], litBits, lens[:], litSyms[:])
	for s := 0; s < 32; s++ {
		lens[s] = 5
	}
	buildTable(fixedDist[:], distBits, lens[:32], distSyms[:])
}

// fixedLitLens returns the code lengths of the fixed literal/length code.
func fixedLitLens() (lens [288]uint8) {
	for s := range lens {
		switch {
		case s < 144:
			lens[s] = 8
		case s < 256:
			lens[s] = 9
		case s < 280:
			lens[s] = 7
		default:
			lens[s] = 8
		}
	}
	return lens
}

// codeStarts counts the codes of each length in lens, and returns with the
// counts the first canonical code of each length: codes are assigned in
// symbol order within a length, shorter lengths first.
func codeStarts(lens []uint8) (count, next [16]uint32) {
	for _, l := range lens {
		count[l]++
	}
	code := uint32(0)
	for l := 1; l < 16; l++ {
		code <<= 1
		next[l] = code
		code += count[l]
	}
	return count, next
}

// buildTable fills table with the canonical Huffman code whose per-symbol
// code lengths are lens; syms gives each symbol's entry template (zero for
// a symbol that must never be decoded). It reports false for an over- or
// under-subscribed code, with compress/flate's two exceptions: a code with
// no symbols at all, and a single symbol of length one, are accepted and
// fail only when a bit pattern they do not own is decoded.
func buildTable(table []uint32, primary uint, lens []uint8, syms []uint32) bool {
	count, next := codeStarts(lens)
	longest := uint(15)
	for longest > 0 && count[longest] == 0 {
		longest--
	}
	if longest == 0 {
		clear(table[:1<<primary])
		return true
	}
	if code := next[longest] + count[longest]; code != 1<<longest {
		if code != 1 || longest != 1 {
			return false
		}
		clear(table[:1<<primary]) // the unowned half must read as invalid
	}

	// Codes longer than the primary index are canonical-order last, so
	// their prefixes are the top of the primary range: one link each.
	subBits := uint(0)
	if longest > primary {
		subBits = longest - primary
		off := uint32(1) << primary
		for p := next[primary+1] >> 1; p < 1<<primary; p++ {
			r := uint32(bits.Reverse16(uint16(p))) >> (16 - primary)
			table[r] = entSub | uint32(subBits)<<entXShift | off<<entValShift
			off += 1 << subBits
		}
	}

	for s, l8 := range lens {
		l := uint(l8)
		if l == 0 {
			continue
		}
		r := uint32(bits.Reverse16(uint16(next[l]))) >> (16 - l)
		next[l]++
		e := syms[s]
		if e != 0 {
			e |= uint32(l)
		}
		if l <= primary {
			for j := r; j < 1<<primary; j += 1 << l {
				table[j] = e
			}
			continue
		}
		sub := table[r&(1<<primary-1)] >> entValShift
		for j := r >> primary; j < 1<<subBits; j += 1 << (l - primary) {
			table[sub+j] = e
		}
	}
	return true
}

// buildPairs fills the pair table of a built literal/length table, given
// the code lengths it was built from. An index whose bits begin with a
// literal code of at most pairBits bits gets that literal, and the literal
// after it too when that code fits in the bits left; every other entry is
// zero. It is one pass over the literals, each filling the entries its code
// begins: the first literal of each code length works out which second
// literal each of its entries holds, and every later one of that length
// copies the answer, since the bits after a code do not depend on which
// code of that length it was.
func buildPairs(pairs *pairTable, lit *litTable, lens []uint8) {
	clear(pairs[:])
	_, next := codeStarts(lens)
	var firstCode, firstEnt [pairBits + 1]uint32 // by code length; firstEnt 0: none yet
	for s, l8 := range lens[:256] {
		l := uint32(l8)
		if l == 0 {
			continue
		}
		r := uint32(bits.Reverse16(uint16(next[l]))) >> (16 - l)
		next[l]++
		if l > pairBits {
			continue
		}
		e, step := entLit|uint32(s)<<entValShift|l, uint32(1)<<l
		if f := firstEnt[l]; f != 0 {
			for j, jf := r, firstCode[l]; j < 1<<pairBits; j, jf = j+step, jf+step {
				pairs[j] = pairs[jf&(1<<pairBits-1)] - f + e
			}
			continue
		}
		firstCode[l], firstEnt[l] = r, e
		for j, m := r, uint32(0); j < 1<<pairBits; j, m = j+step, m+1 {
			pairs[j] = e + second(litAt(lit, m), pairBits-l)
		}
	}
}

// second is what a pair entry adds for the code after its first: the
// code's length, entPair and its literal, when the code's entry e is a
// literal of at most room bits, and zero otherwise. Which codes fit is as
// random as the bits, so it is computed with a mask, not a branch.
func second(e, room uint32) uint32 {
	k := e&entLenMask + (e&entLit ^ entLit) // past room unless a literal
	fits := ^uint32(int32(room-k) >> 31)
	return (e&entLenMask | entPair | e>>entValShift<<entPairShift) & fits
}

// litAt returns the literal/length entry of the code the bits of j begin
// with, reading the bits past those j holds as zero: a code longer than
// them comes back with its full length, too long to fit, and is not used.
func litAt(lit *litTable, j uint32) uint32 {
	e := lit[j&(1<<litBits-1)]
	if e&entSub != 0 {
		e = lit[subIndex(e, uint64(j>>litBits))]
	}
	return e
}

// inflater is the reusable state of one decode: the bit reader and the
// tables of the current dynamic block.
type inflater struct {
	src []byte
	pos int    // next byte of src not yet in the bit buffer
	bb  uint64 // bit buffer: the low bc bits are the next bits of the stream
	bc  uint

	lit   litTable
	dist  distTable
	pairs pairTable
	pre   [1 << preBits]uint32
	lens  [286 + 30]uint8
}

// fill tops the bit buffer up to at least 56 bits, or to the end of input.
func (d *inflater) fill() {
	for d.bc < 56 && d.pos < len(d.src) {
		d.bb |= uint64(d.src[d.pos]) << d.bc
		d.pos++
		d.bc += 8
	}
}

// take consumes n <= 16 bits.
func (d *inflater) take(n uint) (uint32, error) {
	if d.bc < n {
		d.fill()
		if d.bc < n {
			return 0, io.ErrUnexpectedEOF
		}
	}
	v := uint32(d.bb) & (1<<n - 1)
	d.bb >>= n
	d.bc -= n
	return v, nil
}

// subIndex resolves a sub-table link: the entry's offset plus as many of
// the bits after the primary index as the sub-table is wide.
func subIndex(link uint32, rest uint64) uint32 {
	return link>>entValShift + uint32(rest)&(1<<(link>>entXShift&0xf)-1)
}

// sym decodes one symbol and returns its table entry. A code that runs
// past the end of input is caught by its length: the buffer is zero-padded
// there, and an entry reached through padding is longer than the real bits.
func (d *inflater) sym(table []uint32, primary uint) (uint32, error) {
	if d.bc < 15 {
		d.fill()
	}
	e := table[d.bb&(1<<primary-1)]
	if e&entSub != 0 {
		e = table[subIndex(e, d.bb>>primary)]
	}
	n := uint(e & entLenMask)
	if n == 0 {
		return 0, errInflateCorrupt
	}
	if n > d.bc {
		return 0, io.ErrUnexpectedEOF
	}
	d.bb >>= n
	d.bc -= n
	return e, nil
}

// inflate decodes the DEFLATE stream that is all of src into dst and
// returns the number of bytes written. The stream must end in the last byte
// of src with zero padding bits, as compress/flate writes it. It allocates
// nothing.
func (d *inflater) inflate(dst, src []byte) (int, error) {
	d.src, d.pos, d.bb, d.bc = src, 0, 0, 0
	defer func() { d.src = nil }()
	op := 0
	for {
		hdr, err := d.take(3)
		if err != nil {
			return op, err
		}
		switch hdr >> 1 {
		case 0:
			op, err = d.stored(dst, op)
		case 1:
			op, err = d.huffman(dst, op, &fixedLit, nil, &fixedDist)
		case 2:
			var pairs *pairTable
			if pairs, err = d.dynamicHeader(); err == nil {
				op, err = d.huffman(dst, op, &d.lit, pairs, &d.dist)
			}
		default:
			err = errInflateCorrupt
		}
		switch {
		case err != nil:
			return op, err
		case hdr&1 == 0: // not the final block
		case d.pos != len(d.src) || d.bc >= 8: // a whole byte is left
			return op, errInflateTrailing
		case d.bb != 0:
			return op, errInflatePadding
		default:
			return op, nil
		}
	}
}

// stored copies one stored block.
func (d *inflater) stored(dst []byte, op int) (int, error) {
	// The block starts at the next byte boundary: hand back the whole
	// bytes the bit buffer read ahead; the rest of the current one is
	// padding, and must be zero.
	pos := d.pos - int(d.bc>>3)
	if d.bb&(1<<(d.bc&7)-1) != 0 {
		return op, errInflatePadding
	}
	d.bb, d.bc = 0, 0
	if len(d.src)-pos < 4 {
		return op, io.ErrUnexpectedEOF
	}
	n := int(binary.LittleEndian.Uint16(d.src[pos:]))
	if uint16(n) != ^binary.LittleEndian.Uint16(d.src[pos+2:]) {
		return op, errInflateCorrupt
	}
	pos += 4
	if len(d.src)-pos < n {
		return op, io.ErrUnexpectedEOF
	}
	if len(dst)-op < n {
		return op, errDstFull
	}
	copy(dst[op:], d.src[pos:pos+n])
	d.pos = pos + n
	return op + n, nil
}

// dynamicHeader reads a dynamic block's code lengths and builds its tables.
// It returns the block's pair table, or nil when the input left is too
// short for one to pay for its building.
func (d *inflater) dynamicHeader() (*pairTable, error) {
	hdr, err := d.take(14)
	if err != nil {
		return nil, err
	}
	nlit, ndist, nclen := int(hdr&31)+257, int(hdr>>5&31)+1, int(hdr>>10)+4
	if nlit > 286 || ndist > 30 {
		return nil, errInflateCorrupt
	}
	var pre [19]uint8
	for i := 0; i < nclen; i++ {
		v, err := d.take(3)
		if err != nil {
			return nil, err
		}
		pre[codeOrder[i]] = uint8(v)
	}
	if !buildTable(d.pre[:], preBits, pre[:], preSyms[:]) {
		return nil, errInflateCorrupt
	}

	lens := d.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		e, err := d.sym(d.pre[:], preBits)
		if err != nil {
			return nil, err
		}
		x := uint8(e >> entValShift)
		if x < 16 {
			lens[i] = x
			i++
			continue
		}
		var rep, xbits uint
		var fill uint8
		switch x {
		case 16:
			if i == 0 {
				return nil, errInflateCorrupt
			}
			rep, xbits, fill = 3, 2, lens[i-1]
		case 17:
			rep, xbits = 3, 3
		default:
			rep, xbits = 11, 7
		}
		v, err := d.take(xbits)
		if err != nil {
			return nil, err
		}
		rep += uint(v)
		if i+int(rep) > len(lens) {
			return nil, errInflateCorrupt
		}
		for ; rep > 0; rep-- {
			lens[i] = fill
			i++
		}
	}
	if !buildTable(d.lit[:], litBits, lens[:nlit], litSyms[:]) ||
		!buildTable(d.dist[:], distBits, lens[nlit:], distSyms[:]) {
		return nil, errInflateCorrupt
	}
	if len(d.src)-d.pos < pairMinInput {
		return nil, nil
	}
	buildPairs(&d.pairs, &d.lit, lens[:nlit])
	return &d.pairs, nil
}

// huffman decodes the symbols of one compressed block up to its
// end-of-block code, writing at dst[op:]. pairs is the block's pair table,
// or nil when it has none.
func (d *inflater) huffman(dst []byte, op int, lit *litTable, pairs *pairTable, dist *distTable) (int, error) {
	src := d.src
	bb, bc, pos := d.bb, d.bc, d.pos

	// Without a pair table the literal/length table's primary entries stand
	// in for one: a literal entry there reads as a pair entry of one literal.
	fast, mask := (*pairTable)(lit[:1<<pairBits]), uint64(1<<litBits-1)
	if pairs != nil {
		fast, mask = pairs, 1<<pairBits-1
	}

	// The unchecked loop. While fastInMargin bytes of input and
	// fastOutMargin bytes of room lie ahead, every load is of real input
	// and every store in bounds. Refill invariant: the low bc bits of bb
	// are unconsumed stream bits, any set bit above them equals the stream
	// bit it shadows (src[pos:] shifted up by bc), so OR-ing eight more
	// bytes in at bit bc is idempotent; a refill leaves 56 <= bc <= 63.
	// That covers three pair entries (36 bits), or two and a length code
	// with its extra bits (24+15+5); the distance code and its extra bits
	// (15+13) get a second refill when fewer than 28 remain. Shift counts
	// are masked to six bits, which they never exceed, so the compiler
	// drops its guard for counts of 64 and more.
	for len(src)-pos >= fastInMargin && len(dst)-op >= fastOutMargin {
		bb |= binary.LittleEndian.Uint64(src[pos:]) << (bc & 63)
		pos += int(63-bc) >> 3
		bc |= 56

		// Each literal entry is stored as two bytes, whether it holds one
		// literal or two: what comes next overwrites a spare second byte.
		e := fast[bb&mask]
		if e&entLit != 0 {
			w := (*[8]byte)(dst[op:])
			bb >>= e & 63
			bc -= uint(e & entLenMask)
			w[0], w[1] = byte(e>>entValShift), byte(e>>entPairShift)
			k := 1 + uint(e>>entPairBit&1)
			e = fast[bb&mask]
			if e&entLit != 0 {
				bb >>= e & 63
				bc -= uint(e & entLenMask)
				w[k], w[k+1] = byte(e>>entValShift), byte(e>>entPairShift)
				k += 1 + uint(e>>entPairBit&1)
				e = fast[bb&mask]
				if e&entLit != 0 {
					bb >>= e & 63
					bc -= uint(e & entLenMask)
					w[k], w[k+1] = byte(e>>entValShift), byte(e>>entPairShift)
					op += int(k + 1 + uint(e>>entPairBit&1))
					continue
				}
			}
			op += int(k)
		}
		// e is now the entry of a code that is not a literal (or is one
		// longer than pairBits): the literal/length table's own, or a pair
		// table's zero, which says to look the code up there.
		if e == 0 {
			e = lit[bb&(1<<litBits-1)]
		}
		if e&entSub != 0 {
			e = lit[subIndex(e, bb>>litBits)]
		}
		n := uint(e & entLenMask)
		if n == 0 {
			return op, errInflateCorrupt
		}
		bb >>= n
		bc -= n
		if e&entLit != 0 {
			dst[op] = byte(e >> entValShift)
			op++
			continue
		}
		if e&entEOB != 0 {
			d.bb, d.bc, d.pos = bb&(1<<bc-1), bc, pos
			return op, nil
		}
		x := uint(e >> entXShift & 0xf)
		length := int(e>>entValShift) + int(uint32(bb)&(1<<x-1))
		bb >>= x
		bc -= x

		if bc < 28 {
			bb |= binary.LittleEndian.Uint64(src[pos:]) << bc
			pos += int(63-bc) >> 3
			bc |= 56
		}
		e = dist[bb&(1<<distBits-1)]
		if e&entSub != 0 {
			e = dist[subIndex(e, bb>>distBits)]
		}
		n = uint(e & entLenMask)
		if n == 0 {
			return op, errInflateCorrupt
		}
		bb >>= n
		bc -= n
		x = uint(e >> entXShift & 0xf)
		back := int(e>>entValShift) + int(uint32(bb)&(1<<x-1))
		bb >>= x
		bc -= x
		if back > op {
			return op, errInflateCorrupt
		}
		if back >= 8 {
			// Eight bytes at a time; may write up to seven bytes past
			// the match, which fastOutMargin reserved and later output
			// overwrites.
			for i := 0; i < length; i += 8 {
				binary.LittleEndian.PutUint64(dst[op+i:], binary.LittleEndian.Uint64(dst[op+i-back:]))
			}
		} else {
			for i := 0; i < length; i++ {
				dst[op+i] = dst[op+i-back]
			}
		}
		op += length
	}

	// The checked loop, for the last bytes of input or of room.
	d.bb, d.bc, d.pos = bb&(1<<bc-1), bc, pos
	for {
		e, err := d.sym(lit[:], litBits)
		if err != nil {
			return op, err
		}
		if e&entLit != 0 {
			if op == len(dst) {
				return op, errDstFull
			}
			dst[op] = byte(e >> entValShift)
			op++
			continue
		}
		if e&entEOB != 0 {
			return op, nil
		}
		v, err := d.take(uint(e >> entXShift & 0xf))
		if err != nil {
			return op, err
		}
		length := int(e>>entValShift) + int(v)
		if e, err = d.sym(dist[:], distBits); err != nil {
			return op, err
		}
		if v, err = d.take(uint(e >> entXShift & 0xf)); err != nil {
			return op, err
		}
		back := int(e>>entValShift) + int(v)
		if back > op {
			return op, errInflateCorrupt
		}
		if len(dst)-op < length {
			return op, errDstFull
		}
		for i := 0; i < length; i++ {
			dst[op+i] = dst[op+i-back]
		}
		op += length
	}
}
