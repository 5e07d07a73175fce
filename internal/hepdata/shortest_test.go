package hepdata

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"os"
	"strconv"
	"testing"
)

var updatePow10 = flag.Bool("update-pow10", false, "rewrite pow10.go from math/big")

// jsonFloat is the reference for the float kernel: encoding/json's form
// of a finite float64, strconv's shortest 'f' from 1e-6 up to 1e21 and
// shortest 'e' outside it, with "e-09" cut to "e-9".
func jsonFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		dst = strconv.AppendFloat(dst, f, 'e', -1, 64)
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
		return dst
	}
	return strconv.AppendFloat(dst, f, 'f', -1, 64)
}

// checkFloat demands the kernel and the encoder write what the reference
// does for f after a prefix they must keep, and that the encoder fail a
// NaN or an infinity and write nothing for it.
func checkFloat(t *testing.T, f float64) {
	t.Helper()
	prefix := []byte("kept:")
	e := encoder{buf: prefix}
	e.float(f)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil || len(e.buf) != len(prefix) {
			t.Fatalf("%v (bits %#016x): error %v, wrote %q", f, math.Float64bits(f), e.err, e.buf[len(prefix):])
		}
		return
	}
	want := jsonFloat(nil, f)
	if got := appendShortest(prefix, f); !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("bits %#016x: kernel wrote %q, strconv %q", math.Float64bits(f), got, want)
	}
	if e.err != nil || !bytes.Equal(e.buf[len(prefix):], want) {
		t.Fatalf("bits %#016x: encoder wrote %q (error %v), strconv %q", math.Float64bits(f), e.buf, e.err, want)
	}
}

// floatEdges are the values whose text a kernel most easily gets wrong:
// both zeros, the extremes, the first normal and the last subnormal, the
// two notation switch points and their neighbours, powers of two and ten
// at the top and bottom of the range, whole numbers where the encoder's
// fast path ends and where floats stop being whole-spaced, and ties.
var floatEdges = []float64{
	0, math.Copysign(0, -1), math.MaxFloat64, math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64,
	0x1p-1022, math.Nextafter(0x1p-1022, 0), math.Nextafter(0x1p-1022, 1), 0x1p-1021,
	1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), 9.999999e-7, 1e-7,
	1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, 2e21), 1e20, 1.5e21,
	1e15, 1e15 - 1, 1e15 + 0.5, 1 << 53, 1<<53 - 1, 1<<53 + 2, 1<<54 + 8, 0x1p63, 0x1p64,
	1e22, 1e23, 5e-324, 1e-323, 2.2250738585072014e-308, 1.7976931348623157e308,
	0.1, 0.2, 0.3, 1.0 / 3, 2.0 / 3, 123456789.125, 0.5, 0.25, 1e-5, 9.5, 1.005,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// sweepFloats calls use with at least a million finite floats, each once
// with either sign: seeded random bit patterns and subnormals, every power
// of two and of ten in range with three neighbours each side, the first
// and last thousand subnormals, a thousand floats each side of the two
// notation switch points, the whole numbers and their neighbours around
// 1e15 and 2^53, decimals of one to seventeen digits, and numbers shaped
// like a published spectrum's values and uncertainties.
func sweepFloats(use func(float64)) int {
	n := 0
	both := func(f float64) {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return
		}
		use(f)
		use(-f)
		n += 2
	}
	around := func(f float64, steps int) {
		both(f)
		up, down := f, f
		for i := 0; i < steps; i++ {
			up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, math.Inf(-1))
			both(up)
			both(down)
		}
	}
	rng := rand.New(rand.NewSource(62))
	for i := 0; i < 150000; i++ {
		both(math.Float64frombits(rng.Uint64() &^ (1 << 63)))
	}
	for i := 0; i < 30000; i++ {
		both(math.Float64frombits(rng.Uint64() & (1<<52 - 1)))
	}
	for i := uint64(1); i <= 1000; i++ {
		both(math.Float64frombits(i))
		both(math.Float64frombits(1<<52 - i))
	}
	for k := -1074; k <= 1023; k++ {
		around(math.Ldexp(1, k), 3)
	}
	for k := -323; k <= 308; k++ {
		p, err := strconv.ParseFloat("1e"+strconv.Itoa(k), 64)
		if err != nil {
			panic(err)
		}
		around(p, 3)
	}
	around(1e-6, 1000)
	around(1e21, 1000)
	for _, w := range []float64{1e15, 1 << 53} {
		for i := -20000.0; i <= 20000; i++ {
			both(w + i)
		}
		around(w, 1000)
	}
	var digits [17]byte
	for i := 0; i < 60000; i++ {
		nd := 1 + rng.Intn(len(digits))
		for j := range digits[:nd] {
			digits[j] = byte('0' + rng.Intn(10))
		}
		p, err := strconv.ParseFloat(string(digits[:nd])+"e"+strconv.Itoa(rng.Intn(80)-50), 64)
		if err != nil {
			panic(err)
		}
		both(p)
	}
	for i := 0; i < 10000; i++ {
		scale := 50 + 100*rng.Float64()
		for lo := 0.0; lo < 80; lo += 10 {
			y := scale / (1 + lo/25)
			both(y)
			both(y * 0.03)
		}
	}
	return n
}

// TestShortestMatchesStrconv holds the kernel to strconv on the sweep.
func TestShortestMatchesStrconv(t *testing.T) {
	var got, want []byte
	bad := 0
	n := sweepFloats(func(f float64) {
		got, want = appendShortest(got[:0], f), jsonFloat(want[:0], f)
		if !bytes.Equal(got, want) && bad < 10 {
			bad++
			t.Errorf("bits %#016x: kernel wrote %q, strconv %q", math.Float64bits(f), got, want)
		}
	})
	if n < 1000000 {
		t.Fatalf("swept %d floats, want at least a million", n)
	}
	t.Logf("%d floats swept", n)
}

// FuzzFloatMatchesStrconv holds the kernel, and the encoder around it,
// to strconv for any float64 bit pattern; a NaN or an infinity must fail
// the encoder and write nothing.
func FuzzFloatMatchesStrconv(f *testing.F) {
	for _, v := range floatEdges {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, u uint64) {
		checkFloat(t, math.Float64frombits(u))
	})
}

// TestShortestAllocs: the kernel allocates nothing when the buffer has
// room.
func TestShortestAllocs(t *testing.T) {
	var finite []float64
	for _, f := range floatEdges {
		if !math.IsNaN(f) && !math.IsInf(f, 0) {
			finite = append(finite, f)
		}
	}
	buf := make([]byte, 0, 64)
	i := 0
	n := testing.AllocsPerRun(1000, func() {
		buf = appendShortest(buf[:0], finite[i%len(finite)])
		i++
	})
	if n != 0 {
		t.Errorf("appendShortest into a buffer with room: %.1f allocations, want 0", n)
	}
}

// pow10Source is pow10.go as math/big computes it: for each e the table
// spans, ceil(10^e · 2^(127 − ⌊log2 10^e⌋)).
func pow10Source() []byte {
	var b bytes.Buffer
	b.WriteString(`// Code generated by "go test ./internal/hepdata -run TestPow10TableMatchesBig -update-pow10"; DO NOT EDIT.

package hepdata

// pow10 holds 10^e for pow10Min ≤ e ≤ pow10Max, the range appendShortest
// scales by, normalised into [2^127, 2^128) and rounded up: entry
// e − pow10Min is ceil(10^e · 2^(127 − ⌊log2 10^e⌋)) as {high, low} 64-bit
// halves.
var pow10 = [pow10Max - pow10Min + 1][2]uint64{
`)
	ten, mask := big.NewInt(10), new(big.Int).SetUint64(math.MaxUint64)
	for e := pow10Min; e <= pow10Max; e++ {
		num, den := big.NewInt(1), big.NewInt(1)
		if e >= 0 {
			num.Exp(ten, big.NewInt(int64(e)), nil)
		} else {
			den.Exp(ten, big.NewInt(int64(-e)), nil)
		}
		// ⌊log2 10^e⌋: one less than the bit length of 10^e for e ≥ 0,
		// minus the bit length of 10^−e below (no power of ten under 1
		// is a power of two).
		fl := num.BitLen() - 1
		if e < 0 {
			fl = -den.BitLen()
		}
		if shift := 127 - fl; shift >= 0 {
			num.Lsh(num, uint(shift))
		} else {
			den.Lsh(den, uint(-shift))
		}
		g, rem := new(big.Int).QuoRem(num, den, new(big.Int))
		if rem.Sign() != 0 {
			g.Add(g, big.NewInt(1))
		}
		if g.BitLen() != 128 {
			panic(fmt.Sprintf("10^%d scales to %d bits", e, g.BitLen()))
		}
		hi := new(big.Int).Rsh(g, 64).Uint64()
		lo := new(big.Int).And(g, mask).Uint64()
		fmt.Fprintf(&b, "\t{%#016x, %#016x}, // 1e%d\n", hi, lo, e)
	}
	b.WriteString("}\n")
	return b.Bytes()
}

// TestPow10TableMatchesBig rebuilds pow10.go with math/big and compares
// it byte for byte, and checks the range and the base-2 logarithm the
// kernel computes with a multiply.
func TestPow10TableMatchesBig(t *testing.T) {
	src := pow10Source()
	if *updatePow10 {
		if err := os.WriteFile("pow10.go", src, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	committed, err := os.ReadFile("pow10.go")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, src) {
		t.Fatal("pow10.go differs from what math/big computes; rerun with -update-pow10 and review the diff")
	}
	// Every float's k falls in the table, and the table holds no more.
	lo, hi := math.MaxInt, math.MinInt
	for biased := 0; biased < 0x7ff; biased++ {
		q := biased - 1075
		if biased == 0 {
			q = -1074
		}
		for _, closer := range []bool{false, biased > 1} {
			k := (q * 1262611) >> 22
			if closer {
				k = (q*1262611 - 524031) >> 22
			}
			lo, hi = min(lo, -k), max(hi, -k)
			if h := q + ((-k * 1741647) >> 19) + 1; h < 1 || h > 4 {
				t.Fatalf("q %d: h %d outside 1..4", q, h)
			}
		}
	}
	if lo != pow10Min || hi != pow10Max {
		t.Fatalf("floats need 10^%d..10^%d, table holds 10^%d..10^%d", lo, hi, pow10Min, pow10Max)
	}
	for e := pow10Min; e <= pow10Max; e++ {
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(e, -e))), nil)
		want := p.BitLen() - 1
		if e < 0 {
			want = -p.BitLen()
		}
		if got := (e * 1741647) >> 19; got != want {
			t.Fatalf("⌊log2 10^%d⌋: multiply gives %d, math/big %d", e, got, want)
		}
	}
}

// BenchmarkAppendFloat writes numbers shaped like a published spectrum's
// (the y values and their uncertainties the query corpus carries, none
// whole) with the kernel and with strconv, the reference.
func BenchmarkAppendFloat(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 0, 1024)
	for len(vals) < cap(vals) {
		scale := 50 + 100*rng.Float64()
		for lo := 0.0; lo < 80; lo += 10 {
			y := scale / (1 + lo/25)
			vals = append(vals, y, y*0.03)
		}
	}
	for _, c := range []struct {
		name string
		fn   func([]byte, float64) []byte
	}{{"kernel", appendShortest}, {"strconv", jsonFloat}} {
		b.Run(c.name, func(b *testing.B) {
			buf := make([]byte, 0, 32)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf = c.fn(buf[:0], vals[i&(len(vals)-1)])
			}
		})
	}
}
