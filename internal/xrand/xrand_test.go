package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("stream diverged at %d: %d != %d", i, got, want)
		}
	}
}

func TestSeedSensitivity(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided %d/100 times", same)
	}
}

func TestZeroSeedIsValid(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 95 {
		t.Fatalf("seed 0 produced only %d distinct values in 100 draws", len(seen))
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean %v too far from 0.5", mean)
	}
}

func TestUint64nBounds(t *testing.T) {
	r := New(5)
	if err := quick.Check(func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		v := r.Uint64n(n)
		return v < n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(6)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Intn(10)]++
	}
	for b, c := range counts {
		if math.Abs(float64(c)-n/10) > 5*math.Sqrt(n/10) {
			t.Fatalf("bucket %d count %d too far from %d", b, c, n/10)
		}
	}
}

func TestGaussMoments(t *testing.T) {
	r := New(8)
	const n = 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := r.Gauss(5, 2)
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean-5) > 0.03 {
		t.Fatalf("gauss mean %v != 5", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.03 {
		t.Fatalf("gauss sigma %v != 2", math.Sqrt(variance))
	}
}

func TestExpMean(t *testing.T) {
	r := New(9)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.Exp(3)
		if v < 0 {
			t.Fatalf("negative exponential deviate %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-3) > 0.05 {
		t.Fatalf("exp mean %v != 3", mean)
	}
}

func TestBreitWignerMedian(t *testing.T) {
	r := New(10)
	const n = 100000
	above := 0
	for i := 0; i < n; i++ {
		v := r.BreitWigner(91.2, 2.5)
		if v <= 0 {
			t.Fatalf("non-positive BW deviate %v", v)
		}
		if v > 91.2 {
			above++
		}
	}
	frac := float64(above) / n
	if math.Abs(frac-0.5) > 0.02 {
		t.Fatalf("BW median off: %v of mass above pole", frac)
	}
}

func TestPoissonMoments(t *testing.T) {
	r := New(11)
	for _, mean := range []float64{0.5, 3, 25, 80} {
		const n = 50000
		sum := 0.0
		for i := 0; i < n; i++ {
			v := r.Poisson(mean)
			if v < 0 {
				t.Fatalf("negative poisson deviate %d", v)
			}
			sum += float64(v)
		}
		got := sum / n
		if math.Abs(got-mean) > 4*math.Sqrt(mean/n)+0.05 {
			t.Fatalf("poisson(%v) mean %v", mean, got)
		}
	}
}

func TestPoissonNonPositiveMean(t *testing.T) {
	r := New(12)
	if r.Poisson(0) != 0 || r.Poisson(-1) != 0 {
		t.Fatal("Poisson of non-positive mean must be 0")
	}
}

func TestPowerLawBounds(t *testing.T) {
	r := New(13)
	for _, alpha := range []float64{0.5, 1.0, 2.7, 4.0} {
		for i := 0; i < 10000; i++ {
			v := r.PowerLaw(alpha, 10, 500)
			if v < 10 || v > 500.0000001 {
				t.Fatalf("PowerLaw(alpha=%v) out of range: %v", alpha, v)
			}
		}
	}
}

func TestPowerLawSteepness(t *testing.T) {
	// A steeper spectrum must put more probability near xmin.
	r := New(14)
	low := func(alpha float64) float64 {
		n, cnt := 50000, 0
		for i := 0; i < n; i++ {
			if r.PowerLaw(alpha, 10, 500) < 20 {
				cnt++
			}
		}
		return float64(cnt) / float64(n)
	}
	if low(4.0) <= low(1.5) {
		t.Fatal("steeper power law is not more peaked at xmin")
	}
}

func TestPowerLawPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PowerLaw with bad bounds did not panic")
		}
	}()
	New(1).PowerLaw(2, -1, 5)
}

func TestPermIsPermutation(t *testing.T) {
	r := New(15)
	if err := quick.Check(func(n uint8) bool {
		m := int(n%64) + 1
		p := r.Perm(m)
		seen := make([]bool, m)
		for _, v := range p {
			if v < 0 || v >= m || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRangeBounds(t *testing.T) {
	r := New(16)
	for i := 0; i < 10000; i++ {
		v := r.Range(-2, 7)
		if v < -2 || v >= 7 {
			t.Fatalf("Range out of bounds: %v", v)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(17)
	const n = 100000
	cnt := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			cnt++
		}
	}
	if frac := float64(cnt) / n; math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) rate %v", frac)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkGauss(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Gauss(0, 1)
	}
}

func TestForEventDeterminism(t *testing.T) {
	// The stream for (seed, event) is a pure function of the pair: it must
	// not depend on how many other events were drawn first.
	a := ForEvent(42, 7)
	b := ForEvent(42, 7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("ForEvent streams diverge for identical (seed, event)")
		}
	}
}

func TestForEventIndependence(t *testing.T) {
	// Neighbouring event numbers and neighbouring seeds must give
	// uncorrelated streams: no shared prefix, means near 1/2.
	const draws = 20000
	for _, pair := range [][2]*Rand{
		{ForEvent(1, 0), ForEvent(1, 1)},
		{ForEvent(1, 5), ForEvent(2, 5)},
	} {
		a, b := pair[0], pair[1]
		if a.Uint64() == b.Uint64() {
			t.Fatal("distinct (seed, event) pairs share their first output")
		}
		var sum float64
		for i := 0; i < draws; i++ {
			sum += a.Float64() - b.Float64()
		}
		if mean := sum / draws; math.Abs(mean) > 0.02 {
			t.Fatalf("correlated streams: mean difference %v", mean)
		}
	}
}

// TestSeedForEventMatchesForEvent holds the in-place form to the stream the
// allocating one gave before it existed: the first output and a rolling
// digest of the first 1,000 were recorded from ForEvent at commit 6213c9b.
// The Rand under test is one long-lived value, dirtied between cases, as a
// pipeline worker's is.
func TestSeedForEventMatchesForEvent(t *testing.T) {
	var reused Rand
	for _, c := range []struct{ seed, event, first, digest uint64 }{
		{0x2a, 0x7, 0x64c6cee0baa0154, 0x297407cda42fffb2},
		{0xf0115b, 0x0, 0x60cd005969c33bf, 0xa688fecd1ce6db87},
		{0x8000000000000000, 0xffffffffffffffff, 0xde295acfc9c1d371, 0x8cd1664933ebca63},
	} {
		reused.SeedForEvent(c.seed, c.event)
		fresh := ForEvent(c.seed, c.event)
		var digest uint64
		for i := 0; i < 1000; i++ {
			got, want := reused.Uint64(), fresh.Uint64()
			if got != want {
				t.Fatalf("(%#x, %#x) output %d: re-seeded %#x, ForEvent %#x", c.seed, c.event, i, got, want)
			}
			if i == 0 && got != c.first {
				t.Fatalf("(%#x, %#x): first output %#x, the parent's stream starts %#x", c.seed, c.event, got, c.first)
			}
			digest = digest*31 + got
		}
		if digest != c.digest {
			t.Fatalf("(%#x, %#x): digest of 1,000 outputs %#x, the parent's %#x", c.seed, c.event, digest, c.digest)
		}
		reused.Gauss(0, 1) // leave the state somewhere else before the next case
	}
	// And New is the same expansion of a plain seed.
	reused.seed(99)
	for i, fresh := 0, New(99); i < 1000; i++ {
		if reused.Uint64() != fresh.Uint64() {
			t.Fatalf("seed(99) output %d differs from New(99)", i)
		}
	}
}
