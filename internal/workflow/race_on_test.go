//go:build race

package workflow

// raceEnabled reports that the race detector is on: it changes what
// allocates, so the allocation gate skips itself.
const raceEnabled = true
