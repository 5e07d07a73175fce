//go:build !race

package eventflow

const raceEnabled = false
