//go:build !race

package cas

const raceEnabled = false
