//go:build !race

package transport

// raceEnabled reports whether the race detector is active. See
// race_on_test.go.
const raceEnabled = false
