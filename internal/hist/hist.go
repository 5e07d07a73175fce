// Package hist implements the histogramming layer shared by the preserved
// analyses, the RIVET-style framework, and the benchmark harnesses: fixed-
// binning 1D histograms with weighted fills, under/overflow accounting,
// and a YODA-like plain-text serialization so that
// archived reference data remains human-readable decades later — a core
// preservation requirement the paper attributes to RIVET's "light" format.
package hist

import (
	"fmt"
	"math"
)

// H1D is a one-dimensional histogram with uniform binning on [Lo, Hi).
// Weighted fills accumulate both Σw and Σw² per bin so statistical
// uncertainties survive serialization.
type H1D struct {
	Name    string
	Title   string
	NBins   int
	Lo, Hi  float64
	SumW    []float64
	SumW2   []float64
	Under   float64 // Σw below Lo
	Over    float64 // Σw at or above Hi
	Entries int64
	// Moments of the filled values (not bin centres), for mean/stddev.
	sumWX, sumWX2, sumWAll float64
}

// NewH1D returns an empty histogram with nbins uniform bins on [lo, hi).
// It panics on a non-positive bin count or an empty range, which are
// programming errors.
func NewH1D(name string, nbins int, lo, hi float64) *H1D {
	if nbins <= 0 || hi <= lo {
		panic(fmt.Sprintf("hist: invalid binning %q: nbins=%d range=[%v,%v)", name, nbins, lo, hi))
	}
	return &H1D{
		Name:  name,
		NBins: nbins,
		Lo:    lo,
		Hi:    hi,
		SumW:  make([]float64, nbins),
		SumW2: make([]float64, nbins),
	}
}

// Fill adds one entry at x with unit weight.
func (h *H1D) Fill(x float64) { h.FillW(x, 1) }

// FillW adds one entry at x with weight w. NaN values are counted as
// overflow so that they remain visible in totals rather than vanishing.
func (h *H1D) FillW(x, w float64) {
	h.Entries++
	if math.IsNaN(x) {
		h.Over += w
		return
	}
	switch {
	case x < h.Lo:
		h.Under += w
	case x >= h.Hi:
		h.Over += w
	default:
		i := h.BinIndex(x)
		h.SumW[i] += w
		h.SumW2[i] += w * w
		h.sumWX += w * x
		h.sumWX2 += w * x * x
		h.sumWAll += w
	}
}

// BinIndex returns the bin index for an in-range x.
func (h *H1D) BinIndex(x float64) int {
	i := int(float64(h.NBins) * (x - h.Lo) / (h.Hi - h.Lo))
	if i < 0 {
		i = 0
	}
	if i >= h.NBins {
		i = h.NBins - 1
	}
	return i
}

// BinCenter returns the centre of bin i.
func (h *H1D) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(h.NBins)
	return h.Lo + (float64(i)+0.5)*w
}

// BinWidth returns the uniform bin width.
func (h *H1D) BinWidth() float64 { return (h.Hi - h.Lo) / float64(h.NBins) }

// BinError returns the statistical uncertainty sqrt(Σw²) of bin i.
func (h *H1D) BinError(i int) float64 { return math.Sqrt(h.SumW2[i]) }

// Integral returns the total in-range weight.
func (h *H1D) Integral() float64 {
	s := 0.0
	for _, w := range h.SumW {
		s += w
	}
	return s
}

// Mean returns the weighted mean of the in-range filled values.
func (h *H1D) Mean() float64 {
	if h.sumWAll == 0 {
		return 0
	}
	return h.sumWX / h.sumWAll
}

// MaxBin returns the index of the highest bin; ties resolve to the lowest
// index. An empty histogram returns 0.
func (h *H1D) MaxBin() int {
	best := 0
	for i, w := range h.SumW {
		if w > h.SumW[best] {
			best = i
		}
	}
	return best
}

// Scale multiplies all bin contents (and errors accordingly) by k.
func (h *H1D) Scale(k float64) {
	for i := range h.SumW {
		h.SumW[i] *= k
		h.SumW2[i] *= k * k
	}
	h.Under *= k
	h.Over *= k
	h.sumWX *= k
	h.sumWX2 *= k
	h.sumWAll *= k
}

// Normalize scales the histogram so its in-range integral equals target.
// A histogram with zero integral is left unchanged.
func (h *H1D) Normalize(target float64) {
	integ := h.Integral()
	if integ == 0 {
		return
	}
	h.Scale(target / integ)
}

// Clone returns a deep copy.
func (h *H1D) Clone() *H1D {
	c := *h
	c.SumW = append([]float64(nil), h.SumW...)
	c.SumW2 = append([]float64(nil), h.SumW2...)
	return &c
}

// Values returns a copy of the bin contents, the form the χ² comparators
// consume.
func (h *H1D) Values() []float64 { return append([]float64(nil), h.SumW...) }

// Errors returns per-bin statistical uncertainties.
func (h *H1D) Errors() []float64 {
	out := make([]float64, h.NBins)
	for i := range out {
		out[i] = h.BinError(i)
	}
	return out
}
