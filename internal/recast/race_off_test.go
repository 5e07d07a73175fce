//go:build !race

package recast

const raceEnabled = false
