package bgpsim

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// Run returns a view of the simulator's buffers: after warm-up, a tracked
// propagation allocates nothing.
func TestRunAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomTopology(rng)
	g.Freeze()
	n := g.NumASes()
	sim := New(g)
	run := func() {
		for i := 0; i < n; i += 7 {
			if _, err := sim.Run(Config{Origin: g.ASNAt(i), TrackNextHops: true}); err != nil {
				t.Fatal(err)
			}
		}
	}
	run() // warm the arenas and the dial queue to high water
	run()
	if allocs := testing.AllocsPerRun(3, run); allocs != 0 {
		t.Fatalf("steady-state tracked Run allocated %.1f times per sweep, want 0", allocs)
	}
}

// Nothing a Run hands out is sized by the graph: on a world five times
// larger, one tracked and one untracked Run of the same cloud make the same
// number of allocations and bytes per call.
func TestRunAllocsIndependentOfScale(t *testing.T) {
	type perCall struct{ tracked, trackedBytes, bare, bareBytes float64 }
	var calls []perCall
	for _, scale := range []float64{0.02, 0.1} {
		in := genInternet(t, scale)
		sim := New(in.Graph)
		google := in.Clouds["Google"]
		run := func(track bool) func() {
			return func() {
				if _, err := sim.Run(Config{Origin: google, TrackNextHops: track}); err != nil {
					t.Fatal(err)
				}
			}
		}
		var c perCall
		c.tracked, c.trackedBytes = allocsPerCall(run(true))
		c.bare, c.bareBytes = allocsPerCall(run(false))
		calls = append(calls, c)
	}
	if small, large := calls[0], calls[1]; small != large {
		t.Errorf("Run per call at scale 0.02 vs 0.1: tracked %.1f vs %.1f allocs (%.0f vs %.0f B), untracked %.1f vs %.1f allocs (%.0f vs %.0f B)",
			small.tracked, large.tracked, small.trackedBytes, large.trackedBytes, small.bare, large.bare, small.bareBytes, large.bareBytes)
	}
}

// allocsPerCall is testing.AllocsPerRun that also reports bytes: run warms
// the scratch first, then the heap counters are read around 50 calls on
// one P. The window is measured five times and the least of each count is
// kept: the runtime or the test framework may allocate in one window now
// and then, and that one allocation is not run's.
func allocsPerCall(run func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < 5; i++ {
		run()
	}
	const calls, windows = 50, 5
	allocs, bytes = math.Inf(1), math.Inf(1)
	for range windows {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		allocs = min(allocs, float64(after.Mallocs-before.Mallocs)/calls)
		bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/calls)
	}
	return allocs, bytes
}
