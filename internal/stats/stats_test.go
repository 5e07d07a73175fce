package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestChiSquaredSurvivalAnchors(t *testing.T) {
	// Known values: P(chi2 >= ndf) ~ 0.5 at the median-ish region, and
	// textbook anchors.
	cases := []struct {
		chi2 float64
		ndf  int
		want float64
		tol  float64
	}{
		{0, 5, 1, 1e-12},
		{1, 1, 0.3173, 1e-3},
		{4, 1, 0.0455, 1e-3},
		{9, 1, 0.0027, 1e-4},
		{2.366, 2, 0.3063, 1e-3},
		{18.31, 10, 0.05, 1e-3},
	}
	for _, c := range cases {
		got := ChiSquaredSurvival(c.chi2, c.ndf)
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("Q(%v|%d) = %v, want %v", c.chi2, c.ndf, got, c.want)
		}
	}
}

func TestChiSquaredSurvivalMonotone(t *testing.T) {
	if err := quick.Check(func(a, b float64) bool {
		x := math.Abs(math.Mod(a, 50))
		y := math.Abs(math.Mod(b, 50))
		if x > y {
			x, y = y, x
		}
		return ChiSquaredSurvival(x, 7) >= ChiSquaredSurvival(y, 7)-1e-12
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChi2WithErrors(t *testing.T) {
	y1 := []float64{10, 20}
	e1 := []float64{1, 2}
	y2 := []float64{11, 18}
	e2 := []float64{1, 1}
	r, err := Chi2WithErrors(y1, e1, y2, e2)
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0/2 + 4.0/5
	if math.Abs(r.Chi2-want) > 1e-12 {
		t.Fatalf("chi2 %v want %v", r.Chi2, want)
	}
	if r.NDF != 2 {
		t.Fatalf("ndf %d", r.NDF)
	}
}

func TestReducedChi2(t *testing.T) {
	r := Chi2Result{Chi2: 10, NDF: 5}
	if r.Reduced() != 2 {
		t.Fatalf("reduced %v", r.Reduced())
	}
	if !math.IsInf(Chi2Result{Chi2: 1}.Reduced(), 1) {
		t.Fatal("ndf=0 must give +Inf")
	}
}

func TestUpperLimitZeroObsZeroBkg(t *testing.T) {
	// The canonical counting-experiment anchor: 0 observed, 0 background,
	// 95% CL upper limit ≈ 3.0 events.
	ul := UpperLimit(0, 0, 0.95)
	if math.Abs(ul-3.0) > 0.05 {
		t.Fatalf("UL(0,0)=%v want ~3.0", ul)
	}
}

func TestUpperLimitGrowsWithObservation(t *testing.T) {
	prev := 0.0
	for _, n := range []int{0, 1, 3, 10} {
		ul := UpperLimit(n, 1, 0.95)
		if ul <= prev {
			t.Fatalf("UL not increasing: n=%d ul=%v prev=%v", n, ul, prev)
		}
		prev = ul
	}
}

func TestUpperLimitCLsNotBelowCLsb(t *testing.T) {
	// With background present and a deficit, CLs protects against
	// excluding signal the experiment is not sensitive to: UL with b=5
	// must exceed the b=0 UL for the same n=0.
	withB := UpperLimit(0, 5, 0.95)
	noB := UpperLimit(0, 0, 0.95)
	if withB < noB-1e-9 {
		t.Fatalf("CLs protection violated: UL(b=5)=%v < UL(b=0)=%v", withB, noB)
	}
}

func BenchmarkUpperLimit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = UpperLimit(5, 3.2, 0.95)
	}
}
