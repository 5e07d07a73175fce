//go:build race

package queryserve

// raceEnabled reports that the race detector is on: it changes what
// allocates, so the allocation gates skip themselves.
const raceEnabled = true
