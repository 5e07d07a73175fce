//go:build !race

package queryserve

const raceEnabled = false
