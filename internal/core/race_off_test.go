//go:build !race

package core

// raceEnabled reports whether the race detector is active; it makes
// sync.Pool drop items at random, so AllocsPerRun assertions cannot hold.
const raceEnabled = false
