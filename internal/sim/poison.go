//go:build !race

package sim

// poison is a no-op outside race-detector builds; see poison_race.go.
func poison(*Event) {}
