package hepdata

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
)

// appendShortest is the canonical encoder's float kernel. It appends the
// text encoding/json writes for a finite float64: the shortest decimal
// that reads back as the same float, in 'f' notation from 1e-6 up to 1e21
// and in exponent notation outside that range, the exponent unpadded
// (1e-7, 1.5e+21, 5e-324). That is byte for byte
// strconv.AppendFloat(dst, f, 'f' or 'e', -1, 64) with encoding/json's
// "e-09 → e-9" fix-up, which FuzzFloatMatchesStrconv and
// TestShortestMatchesStrconv hold it to.
//
// The digits come from Schubfach (R. Giulietti, "The Schubfach way to
// render doubles", 2020; the shape follows the reference Java
// DoubleToDecimal and A. Bolz's C++ port): the float's rounding interval
// is scaled by a 128-bit power of ten (pow10, generated and checked
// against math/big by TestPow10TableMatchesBig) into integers rounded to
// odd, and one comparison picks the decimal one digit shorter when the
// interval holds it, else the nearer of the two at full length, ties to
// even. It is integer arithmetic only. The digits are then written eight
// at a time from a two-digit table, trailing zeros stripped, as strconv's
// shortest form has none.
func appendShortest(dst []byte, f float64) []byte {
	u := math.Float64bits(f)
	if u>>63 != 0 {
		dst = append(dst, '-')
	}
	frac, biased := u&(1<<52-1), int(u>>52)&0x7ff
	if frac == 0 && biased == 0 {
		return append(dst, '0')
	}
	m, e := shortestDecimal(frac, biased)
	abs := math.Abs(f)
	return appendDecimal(dst, m, e, abs < 1e-6 || abs >= 1e21)
}

// shortestDecimal returns the shortest m·10^e, nearest first and ties to
// even, that rounds to the positive float with the given IEEE fraction
// and biased exponent (not both zero, not the all-ones exponent). m may
// end in zeros.
func shortestDecimal(frac uint64, biased int) (m uint64, e int) {
	c, q := frac, -1074
	if biased != 0 {
		c, q = 1<<52|frac, biased-1075
		// A whole number below 2^53 is its own shortest decimal: its
		// neighbours are at most one apart.
		if -52 <= q && q <= 0 && c&(1<<uint(-q)-1) == 0 {
			return c >> uint(-q), 0
		}
	}
	// The rounding interval of c·2^q, in quarters: its ends are halfway
	// to the neighbours, and the one below is half as far at a power of
	// two (not the smallest normal, whose neighbour below is as far).
	closer := frac == 0 && biased > 1
	cb := 4 * c
	cbl, cbr := cb-2, cb+2
	// k = ⌊log10 2^q⌋, or ⌊log10 ¾·2^q⌋ for the narrower interval, so
	// the interval is at least one unit of 10^k wide and less than ten.
	k := (q * 1262611) >> 22
	if closer {
		cbl++
		k = (q*1262611 - 524031) >> 22
	}
	g := pow10[-k-pow10Min]
	// h aligns the product: 2^h·g/2^128 is 2^q·10^-k, 1 ≤ h ≤ 4.
	h := uint(q + ((-k * 1741647) >> 19) + 1)
	vbl, vb, vbr := roundToOdd(g, cbl<<h), roundToOdd(g, cb<<h), roundToOdd(g, cbr<<h)
	// An even c takes the interval's ends too, as strconv reads them back.
	lower, upper := vbl, vbr
	if c&1 != 0 {
		lower++
		upper--
	}
	s := vb >> 2
	if s >= 10 {
		// One digit shorter: at most one of sp, sp+1 (in units of
		// 10^(k+1)) lies in the interval.
		sp := s / 10
		upIn, wpIn := lower <= 40*sp, 40*sp+40 <= upper
		if upIn != wpIn {
			if wpIn {
				sp++
			}
			return sp, k + 1
		}
	}
	uIn, wIn := lower <= 4*s, 4*s+4 <= upper
	if uIn != wIn {
		if wIn {
			s++
		}
		return s, k
	}
	// Both in: the nearer, ties to even. vb is odd unless exact.
	if mid := 4*s + 2; vb > mid || (vb == mid && s&1 != 0) {
		s++
	}
	return s, k
}

// pow10Min and pow10Max bound the powers of ten the kernel scales by:
// 10^−k for every float's k.
const pow10Min, pow10Max = -292, 324

// roundToOdd returns g·cp/2^128 rounded to odd: truncated, with its low
// bit set when any bit below it is.
func roundToOdd(g [2]uint64, cp uint64) uint64 {
	xHi, _ := bits.Mul64(g[1], cp)
	yHi, yLo := bits.Mul64(g[0], cp)
	lo, carry := bits.Add64(yLo, xHi, 0)
	hi := yHi + carry
	if lo > 1 {
		hi |= 1
	}
	return hi
}

// digitPairs holds "00" to "99", each pair as the 16-bit little-endian
// word whose store writes its two bytes in order.
var digitPairs = func() (t [100]uint16) {
	for i := range t {
		t[i] = uint16('0'+i/10) | uint16('0'+i%10)<<8
	}
	return t
}()

// appendDecimal appends m·10^e (m > 0) as the shortest form prints it:
// in exponent notation when exp is set, else in 'f' notation. The digits
// go straight to their place in dst; the text before the point moves one
// byte left to make room for it.
func appendDecimal(dst []byte, m uint64, e int, exp bool) []byte {
	if m%10 == 0 {
		for m%100000000 == 0 {
			m /= 100000000
			e += 8
		}
		if m%10000 == 0 {
			m /= 10000
			e += 4
		}
		if m%100 == 0 {
			m /= 100
			e += 2
		}
		if m%10 == 0 {
			m /= 10
			e++
		}
	}
	nd := decimalLen(m)
	// The number is 0.digits × 10^point.
	point := nd + e
	n := len(dst)
	if exp {
		// d.ddd, then e±x with up to three exponent digits.
		dst = slices.Grow(dst, nd+6)[:n+nd+1]
		b := dst[n:]
		putDigits(b[1:], m)
		b[0] = b[1]
		if nd > 1 {
			b[1] = '.'
		} else {
			dst = dst[:n+1]
		}
		x := point - 1
		if x < 0 {
			dst = append(dst, 'e', '-')
			x = -x
		} else {
			dst = append(dst, 'e', '+')
		}
		if x >= 100 {
			dst = append(dst, byte('0'+x/100))
			x %= 100
		} else if x < 10 {
			return append(dst, byte('0'+x))
		}
		return binary.LittleEndian.AppendUint16(dst, digitPairs[x])
	}
	switch {
	case point <= 0:
		// 0.000ddd
		dst = slices.Grow(dst, 2-point+nd)[:n+2-point+nd]
		b := dst[n:]
		for i := range b[:2-point] {
			b[i] = '0'
		}
		b[1] = '.'
		putDigits(b[2-point:], m)
	case point >= nd:
		// ddd000
		dst = slices.Grow(dst, point)[:n+point]
		b := dst[n:]
		putDigits(b[:nd], m)
		for i := nd; i < point; i++ {
			b[i] = '0'
		}
	default:
		// ddd.ddd
		dst = slices.Grow(dst, nd+1)[:n+nd+1]
		b := dst[n:]
		putDigits(b[1:], m)
		for i := 0; i < point; i++ {
			b[i] = b[i+1]
		}
		b[point] = '.'
	}
	return dst
}

// pow10u64 holds 10^0 to 10^19.
var pow10u64 = [20]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// decimalLen returns the number of decimal digits of m > 0: ⌊log10 2^L⌋
// (1233/4096 is log10 2 to within 2^-14) for m's bit length L, plus one
// when m reaches that power of ten.
func decimalLen(m uint64) int {
	t := bits.Len64(m) * 1233 >> 12
	if m >= pow10u64[t] {
		t++
	}
	return t
}

// putDigits writes the decimal digits of m into b, which has room for
// exactly them: eight at a time from the right, as four pairs in one
// store, then a pair at a time.
func putDigits(b []byte, m uint64) {
	i := len(b)
	for m >= 100000000 {
		r := uint32(m % 100000000)
		m /= 100000000
		hi, lo := r/10000, r%10000
		i -= 8
		binary.LittleEndian.PutUint64(b[i:], uint64(digitPairs[hi/100])|uint64(digitPairs[hi%100])<<16|
			uint64(digitPairs[lo/100])<<32|uint64(digitPairs[lo%100])<<48)
	}
	r := uint32(m)
	for r >= 100 {
		i -= 2
		binary.LittleEndian.PutUint16(b[i:], digitPairs[r%100])
		r /= 100
	}
	if r >= 10 {
		binary.LittleEndian.PutUint16(b, digitPairs[r])
	} else {
		b[0] = byte('0' + r)
	}
}
