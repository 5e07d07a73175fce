//go:build race

package cas

// raceEnabled reports that the race detector is on: it changes what
// allocates, and under it sync.Pool drops puts at random.
const raceEnabled = true
