//go:build !race

package workflow

const raceEnabled = false
