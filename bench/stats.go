package bench

import (
	"math"
	"sort"
)

// percentile reports the p-th percentile (0 < p <= 100) of the samples by
// nearest rank: the smallest sample with at least p percent of the
// samples at or below it. It returns 0 for an empty set.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// median is the mean of the two middle samples for an even count, the
// middle sample otherwise — the form Python's statistics.median uses, so
// the harness and the driver agree on what a run's median is.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quartiles returns the first and third quartile by the exclusive method
// of Python's statistics.quantiles(values, n=4), the one the driver
// applies to a metric's runs. It needs at least two samples.
func quartiles(samples []float64) (q1, q3 float64) {
	n := len(samples)
	if n < 2 {
		return 0, 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	at := func(i int) float64 {
		// Position i*(n+1)/4 on a 1-based axis, interpolated and clamped.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1)) - float64(j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return at(1), at(3)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
