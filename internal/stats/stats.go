// Package stats implements the statistical machinery the preserved-analysis
// frameworks need: the χ² compatibility test for validating re-run analyses
// against archived reference data, and Poisson counting limits (CLs-style)
// and significances for the RECAST and Les Houches reinterpretation use
// cases.
package stats

import (
	"errors"
	"math"
)

// ErrMismatch is returned when two samples that must be compared bin-by-bin
// have different lengths.
var ErrMismatch = errors.New("stats: length mismatch")

// Chi2Result carries the outcome of a χ² compatibility test.
type Chi2Result struct {
	Chi2 float64
	NDF  int
	// PValue is the probability of a χ² at least this large under the
	// null hypothesis that the two inputs agree.
	PValue float64
}

// Reduced returns χ²/ndf, or +Inf for zero degrees of freedom.
func (r Chi2Result) Reduced() float64 {
	if r.NDF == 0 {
		return math.Inf(1)
	}
	return r.Chi2 / float64(r.NDF)
}

// Compatible reports whether the p-value exceeds the significance level
// alpha (e.g. 0.01): the standard "re-run reproduces the archived result"
// criterion used by the validation harnesses.
func (r Chi2Result) Compatible(alpha float64) bool { return r.PValue >= alpha }

// Chi2WithErrors compares two measurements with explicit per-bin
// uncertainties. Bins where the combined uncertainty vanishes are skipped.
func Chi2WithErrors(y1, e1, y2, e2 []float64) (Chi2Result, error) {
	if len(y1) != len(e1) || len(y1) != len(y2) || len(y1) != len(e2) {
		return Chi2Result{}, ErrMismatch
	}
	var chi2 float64
	ndf := 0
	for i := range y1 {
		v := e1[i]*e1[i] + e2[i]*e2[i]
		if v <= 0 {
			continue
		}
		d := y1[i] - y2[i]
		chi2 += d * d / v
		ndf++
	}
	return Chi2Result{Chi2: chi2, NDF: ndf, PValue: ChiSquaredSurvival(chi2, ndf)}, nil
}

// ChiSquaredSurvival returns P(X >= chi2) for a χ² distribution with ndf
// degrees of freedom: the regularized upper incomplete gamma Q(ndf/2,
// chi2/2). ndf <= 0 returns 1.
func ChiSquaredSurvival(chi2 float64, ndf int) float64 {
	if ndf <= 0 || chi2 <= 0 {
		return 1
	}
	return reguGammaQ(float64(ndf)/2, chi2/2)
}

// reguGammaQ computes the regularized upper incomplete gamma function
// Q(a, x) via the series (x < a+1) or continued fraction (x >= a+1),
// following Numerical Recipes.
func reguGammaQ(a, x float64) float64 {
	switch {
	case x < 0 || a <= 0:
		return math.NaN()
	case x == 0:
		return 1
	case x < a+1:
		return 1 - gammaPSeries(a, x)
	default:
		return gammaQContinued(a, x)
	}
}

func gammaPSeries(a, x float64) float64 {
	const itmax = 500
	const eps = 3e-14
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < itmax; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*eps {
			break
		}
	}
	lg, _ := math.Lgamma(a)
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

func gammaQContinued(a, x float64) float64 {
	const itmax = 500
	const eps = 3e-14
	const fpmin = 1e-300
	b := x + 1 - a
	c := 1 / fpmin
	d := 1 / b
	h := d
	for i := 1; i <= itmax; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = b + an/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	lg, _ := math.Lgamma(a)
	return math.Exp(-x+a*math.Log(x)-lg) * h
}

// UpperLimit computes a CLs-style upper limit on the signal yield s, given
// nObs observed events and an expected background b, at the given confidence
// level. It inverts the CLs ratio CL_{s+b}/CL_b by bisection over s. This is
// the limit-setting capability the paper notes RIVET lacks and RECAST-class
// preservation requires.
func UpperLimit(nObs int, background float64, cl float64) float64 {
	if nObs < 0 {
		nObs = 0
	}
	if background < 0 {
		background = 0
	}
	alpha := 1 - cl
	clb := poissonCDF(nObs, background)
	if clb <= 0 {
		clb = 1e-12
	}
	cls := func(s float64) float64 {
		return poissonCDF(nObs, s+background) / clb
	}
	lo, hi := 0.0, float64(nObs)+10*math.Sqrt(background+1)+10
	for cls(hi) > alpha {
		hi *= 2
		if hi > 1e9 {
			return math.Inf(1)
		}
	}
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if cls(mid) > alpha {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// poissonCDF returns P(X <= n) for mean mu, computed in log space for
// stability at large mu.
func poissonCDF(n int, mu float64) float64 {
	if mu <= 0 {
		return 1
	}
	sum := 0.0
	logTerm := -mu // log of P(0)
	for k := 0; k <= n; k++ {
		if k > 0 {
			logTerm += math.Log(mu / float64(k))
		}
		sum += math.Exp(logTerm)
	}
	if sum > 1 {
		return 1
	}
	return sum
}
