package main

import "daspos/internal/xrand"

// The demo's read mix: a deterministic hot-skewed key schedule, seed-driven
// so a cache regression found under load replays bit-identically. A small
// hot set absorbs most lookups over a long cold tail — the skew that makes
// an LRU earn its keep and a stampede drill mean something.

// hotFraction is the probability a read targets the hot set.
const hotFraction = 0.85

// readSchedule expands a hot set and a cold tail into a deterministic key
// sequence of n reads. The same (seed, keys, n) always yields the identical
// sequence. Keys cycle within the hot set (round-robin through a shuffled
// order) so every hot key stays hot; cold keys are drawn uniformly with
// replacement. An empty hot or cold set sends its share of reads to the
// other.
func readSchedule(seed uint64, hotKeys, coldKeys []string, n int) []string {
	rng := xrand.New(seed)
	hot := append([]string(nil), hotKeys...)
	for i := len(hot) - 1; i > 0; i-- {
		j := int(rng.Uint64n(uint64(i + 1)))
		hot[i], hot[j] = hot[j], hot[i]
	}
	out := make([]string, 0, n)
	hotAt := 0
	for i := 0; i < n; i++ {
		useHot := len(coldKeys) == 0 ||
			(len(hot) > 0 && float64(rng.Uint64n(1<<20))/float64(1<<20) < hotFraction)
		if useHot && len(hot) > 0 {
			out = append(out, hot[hotAt%len(hot)])
			hotAt++
			continue
		}
		if len(coldKeys) == 0 {
			continue
		}
		out = append(out, coldKeys[rng.Uint64n(uint64(len(coldKeys)))])
	}
	return out
}
