package main

import "daspos/internal/xrand"

// The demo's read mix: a deterministic hot-skewed key schedule, seed-driven
// so a cache regression found under load replays bit-identically.

// readShape describes one read-workload mix for the query server: a small
// hot set absorbing most lookups over a long cold tail — the skew that
// makes an LRU earn its keep and a stampede drill mean something.
type readShape struct {
	// HotKeys is the small set of keys the hot fraction draws from.
	HotKeys []string
	// ColdKeys is the long tail; cold reads draw uniformly from it.
	ColdKeys []string
	// HotFraction in [0,1] is the probability a read targets the hot set.
	// Values outside the range clamp.
	HotFraction float64
}

// readSchedule expands a shape into a deterministic key sequence of n
// reads. The same (seed, shape, n) always yields the identical sequence.
// Keys cycle within the hot set (round-robin through a shuffled order) so
// every hot key stays hot; cold keys are drawn uniformly with replacement.
// An empty hot or cold set sends its share of reads to the other.
func readSchedule(seed uint64, shape readShape, n int) []string {
	rng := xrand.New(seed)
	frac := shape.HotFraction
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	hot := append([]string(nil), shape.HotKeys...)
	for i := len(hot) - 1; i > 0; i-- {
		j := int(rng.Uint64n(uint64(i + 1)))
		hot[i], hot[j] = hot[j], hot[i]
	}
	out := make([]string, 0, n)
	hotAt := 0
	for i := 0; i < n; i++ {
		useHot := len(shape.ColdKeys) == 0 ||
			(len(hot) > 0 && float64(rng.Uint64n(1<<20))/float64(1<<20) < frac)
		if useHot && len(hot) > 0 {
			out = append(out, hot[hotAt%len(hot)])
			hotAt++
			continue
		}
		if len(shape.ColdKeys) == 0 {
			continue
		}
		out = append(out, shape.ColdKeys[rng.Uint64n(uint64(len(shape.ColdKeys)))])
	}
	return out
}
