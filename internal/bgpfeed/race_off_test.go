//go:build !race

package bgpfeed

// raceEnabled reports whether the race detector is active; its shadow
// allocations make AllocsPerRun-based assertions unreliable.
const raceEnabled = false
