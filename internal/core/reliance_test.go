package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"flatnet/internal/bgpsim"
	"flatnet/internal/topogen"
)

// checkRelianceMatchesResult asserts, for every stride-th origin and all
// four kinds on one shared Metrics (so its pooled simulator serves every
// kind in turn), that Metrics.Reliance lists exactly the positive entries
// of Result.Reliance over a Run of the same (o, kind) mask, in index order,
// with bit-identical values.
func checkRelianceMatchesResult(t *testing.T, ds Dataset, stride int, label string) {
	t.Helper()
	m := New(ds)
	g := ds.Graph
	sim := bgpsim.New(g)
	for i := 0; i < g.NumASes(); i += stride {
		o := g.ASNAt(i)
		for _, kind := range allKinds {
			got, err := m.Reliance(o, kind)
			if err != nil {
				t.Fatalf("%s %v AS%d: %v", label, kind, o, err)
			}
			res, err := sim.Run(bgpsim.Config{Origin: o, Exclude: m.Mask(o, kind), TrackNextHops: true})
			if err != nil {
				t.Fatalf("%s %v AS%d: oracle: %v", label, kind, o, err)
			}
			want, err := res.Reliance()
			if err != nil {
				t.Fatal(err)
			}
			k := 0
			for a, v := range want {
				if v <= 0 {
					continue
				}
				if k >= len(got) || got[k].AS != g.ASNAt(a) || math.Float64bits(got[k].Value) != math.Float64bits(v) {
					t.Fatalf("%s %v origin AS%d: entry %d of %d is %+v, want AS%d = %v", label, kind, o, k, len(got), entryAt(got, k), g.ASNAt(a), v)
				}
				k++
			}
			if k != len(got) {
				t.Fatalf("%s %v origin AS%d: %d entries, want %d", label, kind, o, len(got), k)
			}
		}
	}
}

func entryAt(entries []RelianceEntry, k int) any {
	if k < len(entries) {
		return entries[k]
	}
	return "(none)"
}

// TestRelianceMatchesResult runs the check over every origin of the
// 110-topology corpus.
func TestRelianceMatchesResult(t *testing.T) {
	for seed := int64(0); seed < 110; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(30)
		if seed%10 == 0 {
			n = 140 + rng.Intn(80)
		}
		checkRelianceMatchesResult(t, randomTieredDataset(rng, n), 1, fmt.Sprintf("seed %d", seed))
	}
}

// The full-scale variant samples every 64th origin of the paper-size world
// (CI's fullscale job); like TestPointReachMatchesScalarOracleFullScale it
// is one goroutine comparing two paths, so -race would only add minutes.
func TestRelianceMatchesResultFullScale(t *testing.T) {
	checkRelianceMatchesResult(t, fullScaleDataset(t), 64, "scale 1.0")
}

// A steady-state TopRelianceCtx allocates only for its answer, never a
// buffer sized by the graph: on a world five times larger it makes the same
// number of allocations, and for an origin that reaches nobody (the same
// answer on both worlds) the same number of bytes.
func TestTopRelianceAllocsIndependentOfScale(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	ctx := context.Background()
	type perCall struct{ cloud, cloudBytes, alone, aloneBytes float64 }
	var calls []perCall
	for _, scale := range []float64{0.02, 0.1} {
		in, err := topogen.Generate(topogen.Internet2020(scale))
		if err != nil {
			t.Fatal(err)
		}
		m := New(Dataset{Graph: in.Graph, Tier1: in.Tier1, Tier2: in.Tier2})
		g := in.Graph
		alone := -1
		for i := 0; i < g.NumASes() && alone < 0; i++ {
			if r, err := m.Reachability(g.ASNAt(i), HierarchyFree); err == nil && r == 0 {
				alone = i
			}
		}
		if alone < 0 {
			t.Fatalf("scale %v: every origin reaches someone hierarchy-free", scale)
		}
		var c perCall
		c.cloud, c.cloudBytes = allocsPerCall(func() {
			if _, err := m.TopRelianceCtx(ctx, in.Clouds["Google"], HierarchyFree, 10); err != nil {
				t.Fatal(err)
			}
		})
		c.alone, c.aloneBytes = allocsPerCall(func() {
			if _, err := m.TopRelianceCtx(ctx, g.ASNAt(alone), HierarchyFree, 10); err != nil {
				t.Fatal(err)
			}
		})
		calls = append(calls, c)
	}
	small, large := calls[0], calls[1]
	if small.cloud != large.cloud || small.alone != large.alone || small.aloneBytes != large.aloneBytes {
		t.Errorf("TopRelianceCtx per call at scale 0.02 vs 0.1: Google %.1f vs %.1f allocs (%.0f vs %.0f B), an unreached origin %.1f vs %.1f allocs (%.0f vs %.0f B)",
			small.cloud, large.cloud, small.cloudBytes, large.cloudBytes, small.alone, large.alone, small.aloneBytes, large.aloneBytes)
	}
}

// allocsPerCall is testing.AllocsPerRun that also reports bytes: run warms
// the pools and scratch first, then the heap counters are read around 50
// calls on one P. The collector is off from the warm-up on: a GC inside the
// window would empty the sync.Pools and charge their refill to the calls.
func allocsPerCall(run func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 5; i++ {
		run()
	}
	const calls = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / calls, float64(after.TotalAlloc-before.TotalAlloc) / calls
}
