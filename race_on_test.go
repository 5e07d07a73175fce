//go:build race

package daspos

// raceEnabled reports that the race detector is on: it changes what
// allocates, so the allocation gates that measure without it skip.
const raceEnabled = true
