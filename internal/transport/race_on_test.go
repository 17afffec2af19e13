//go:build race

package transport

// raceEnabled reports whether the race detector is active. Under
// -race, sync.Pool deliberately drops a fraction of Puts and the
// instrumented runtime may allocate on its own, so the allocation
// tests skip themselves; `make rerun` runs them without -race.
const raceEnabled = true
