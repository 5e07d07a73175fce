//go:build !race

package daspos

const raceEnabled = false
