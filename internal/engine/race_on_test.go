//go:build race

package engine

// raceEnabled reports whether the race detector is active. Under
// -race, sync.Pool deliberately drops a fraction of Puts, so the
// staging buffers are rebuilt at random and steady-state allocation
// accounting is not meaningful; TestEngineTrainWarmAllocs skips itself.
const raceEnabled = true
