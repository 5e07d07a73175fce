//go:build race

package recast

// raceEnabled reports that the race detector is on: it changes what
// allocates and how long an event takes, so the back end's allocation and
// heap gates skip themselves.
const raceEnabled = true
