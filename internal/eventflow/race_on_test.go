//go:build race

package eventflow

// raceEnabled reports that the race detector is on: under it sync.Pool
// drops puts at random, so a get after a put may miss.
const raceEnabled = true
