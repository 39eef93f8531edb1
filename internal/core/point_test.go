package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"flatnet/internal/astopo"
	"flatnet/internal/bgpsim"
	"flatnet/internal/par"
	"flatnet/internal/topogen"
)

// checkPointMatchesOracle asserts, for every stride-th origin and all four
// kinds, that Metrics.Reachability (one lane of the batch engine) equals the
// scalar Simulator.ReachabilityCount over Metrics.Mask — the oracle. Kinds
// alternate per origin, so every pooled engine is reused across origins
// while its neighbors serve other kinds.
func checkPointMatchesOracle(t *testing.T, ds Dataset, stride int, label string) {
	t.Helper()
	m := New(ds)
	g := ds.Graph
	forOrigins(t, g, stride, func(sim *bgpsim.Simulator, o astopo.ASN) error {
		for _, kind := range allKinds {
			got, err := m.Reachability(o, kind)
			if err != nil {
				return fmt.Errorf("%s %v AS%d: %v", label, kind, o, err)
			}
			want, err := sim.ReachabilityCount(bgpsim.Config{Origin: o, Exclude: m.Mask(o, kind)})
			if err != nil {
				return fmt.Errorf("%s %v AS%d: oracle: %v", label, kind, o, err)
			}
			if got != want {
				i, _ := g.Index(o)
				return fmt.Errorf("%s %v origin AS%d (tier1=%v tier2=%v, %d providers): point=%d scalar=%d",
					label, kind, o, ds.Tier1.Has(o), ds.Tier2.Has(o), len(g.ProvidersOf(i)), got, want)
			}
		}
		return nil
	})
}

// forOrigins runs check on every stride-th origin of g over par.For, each
// worker with its own simulator (the checks share the caller's Metrics),
// and fails t with the error of the lowest failing origin: the one a
// serial loop would have stopped at, since every lower origin was claimed,
// and finishes, before it.
func forOrigins(t *testing.T, g *astopo.Graph, stride int, check func(sim *bgpsim.Simulator, o astopo.ASN) error) {
	t.Helper()
	errs := make([]error, (g.NumASes()+stride-1)/stride)
	// par.For's own error is the first to happen, not the lowest; errs
	// holds every one.
	_ = par.For(runtime.GOMAXPROCS(0), len(errs), func(int) func(k int) error {
		sim := bgpsim.New(g)
		return func(k int) error {
			errs[k] = check(sim, g.ASNAt(k*stride))
			return errs[k]
		}
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestPointReachMatchesScalarOracle runs the oracle check over every origin
// of the 110-topology corpus (Tier-1/Tier-2 origins inside the base mask
// and origins with zero providers included) and of the scale-0.02 preset.
func TestPointReachMatchesScalarOracle(t *testing.T) {
	for seed := int64(0); seed < 110; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(30)
		if seed%10 == 0 {
			n = 140 + rng.Intn(80)
		}
		checkPointMatchesOracle(t, randomTieredDataset(rng, n), 1, fmt.Sprintf("seed %d", seed))
	}
	in, err := topogen.Generate(topogen.Internet2020(0.02))
	if err != nil {
		t.Fatal(err)
	}
	checkPointMatchesOracle(t, Dataset{Graph: in.Graph, Tier1: in.Tier1, Tier2: in.Tier2}, 1, "preset 0.02")
}

var (
	fullScaleOnce sync.Once
	fullScaleDS   Dataset
	fullScaleErr  error
)

// fullScaleDataset generates the paper-size 2020 world once per test
// process for the full-scale oracle tests (CI's fullscale job). Under the
// race detector they would add minutes, and the small-corpus variants
// already race the same workers over one shared Metrics: they skip under
// -race, and with -short.
func fullScaleDataset(t *testing.T) Dataset {
	t.Helper()
	if testing.Short() || raceEnabled {
		t.Skip("full-scale topology: skipped with -short and under -race")
	}
	fullScaleOnce.Do(func() {
		in, err := topogen.Generate(topogen.Internet2020(1.0))
		if err != nil {
			fullScaleErr = err
			return
		}
		fullScaleDS = Dataset{Graph: in.Graph, Tier1: in.Tier1, Tier2: in.Tier2}
	})
	if fullScaleErr != nil {
		t.Fatal(fullScaleErr)
	}
	return fullScaleDS
}

// The full-scale variant samples every 64th origin of the paper-size world.
func TestPointReachMatchesScalarOracleFullScale(t *testing.T) {
	checkPointMatchesOracle(t, fullScaleDataset(t), 64, "scale 1.0")
}

// TestSweepBlocksMatchScalarFullScale runs four full 64-lane sweep blocks
// per kind, spread across the paper-size world, against the scalar oracle:
// the point test above drives one lane per call, this one every lane of a
// block at once, with the graph's real degree skew behind each word.
func TestSweepBlocksMatchScalarFullScale(t *testing.T) {
	ds := fullScaleDataset(t)
	m := New(ds)
	g := ds.Graph
	n := g.NumASes()
	sim := bgpsim.New(g)
	for _, kind := range allKinds {
		for b := 0; b < 4; b++ {
			lo := b * (n / 4) / bgpsim.BatchLanes * bgpsim.BatchLanes
			got := make([]int, bgpsim.BatchLanes)
			if err := m.ReachabilityRangeIntoCtx(context.Background(), kind, lo, lo+bgpsim.BatchLanes, 1, got); err != nil {
				t.Fatalf("%v block at %d: %v", kind, lo, err)
			}
			for k, cnt := range got {
				o := g.ASNAt(lo + k)
				want, err := sim.ReachabilityCount(bgpsim.Config{Origin: o, Exclude: m.Mask(o, kind)})
				if err != nil {
					t.Fatalf("%v AS%d: oracle: %v", kind, o, err)
				}
				if cnt != want {
					t.Fatalf("%v block at %d lane %d (AS%d): batch=%d scalar=%d", kind, lo, k, o, cnt, want)
				}
			}
		}
	}
}

// An origin outside the graph is refused, with the scalar path's error
// text, before any engine leaves its pool.
func TestPointReachUnknownOrigin(t *testing.T) {
	m := New(fixtureDataset(t))
	for kind := range m.batchPool {
		m.batchPool[kind].New = func() any {
			t.Error("an engine was taken from the pool for an unknown origin")
			return bgpsim.NewBatchReach(m.ds.Graph)
		}
	}
	if _, err := m.Reachability(99999, Tier1Free); err == nil || !strings.Contains(err.Error(), "bgpsim: origin AS99999 not in graph") {
		t.Errorf("Reachability: err = %v", err)
	}
	if _, err := m.ReachabilityMany(context.Background(), []astopo.ASN{100, 99999}, Tier1Free); err == nil || !strings.Contains(err.Error(), "core: origin AS99999 not in graph") {
		t.Errorf("ReachabilityMany: err = %v", err)
	}
}

// lateCancelCtx reports cancellation from its (after+1)-th Err call on, so a
// count passes its entry check and is aborted between engine stages. One
// goroutine owns each value.
type lateCancelCtx struct {
	context.Context
	calls int
	after int
}

func (c *lateCancelCtx) Err() error {
	c.calls++
	if c.calls > c.after {
		return context.Canceled
	}
	return nil
}

// TestPointReachConcurrentKinds interleaves the four kinds — and counts
// canceled at every stage boundary — on one Metrics from 8 goroutines. An
// engine returned to its pool by an aborted call, or reused after its
// neighbor served another kind, must still give the oracle's answer; under
// -race this also covers the per-kind pools.
func TestPointReachConcurrentKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ds := randomTieredDataset(rng, 200)
	m := New(ds)
	g := ds.Graph
	n := g.NumASes()
	var want [HierarchyFree + 1][]int
	for _, kind := range allKinds {
		var err error
		if want[kind], err = m.reachabilityRangeScalar(context.Background(), kind, 0, n, 1); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				oi := (w*53 + i*7) % n
				kind := allKinds[(w+i)%len(allKinds)]
				if i%5 == 0 {
					ctx := &lateCancelCtx{Context: context.Background(), after: 1 + i/5%3}
					if _, err := m.ReachabilityCtx(ctx, g.ASNAt(oi), kind); !errors.Is(err, context.Canceled) {
						t.Errorf("mid-count cancel: err = %v, want context.Canceled", err)
					}
				}
				got, err := m.ReachabilityCtx(context.Background(), g.ASNAt(oi), kind)
				if err != nil {
					t.Error(err)
					return
				}
				if got != want[kind][oi] {
					t.Errorf("worker %d %v AS%d: got %d, want %d", w, kind, g.ASNAt(oi), got, want[kind][oi])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// A steady-state point count allocates nothing: no mask copy, no Result,
// the engine and its buffers come from the kind's pool.
func TestPointReachAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	ds := genDataset(t)
	m := New(ds)
	g := ds.Graph
	ctx := context.Background()
	for _, kind := range allKinds {
		i := 0
		run := func() {
			i = (i + 97) % g.NumASes()
			if _, err := m.ReachabilityCtx(ctx, g.ASNAt(i), kind); err != nil {
				t.Fatal(err)
			}
		}
		for k := 0; k < 50; k++ {
			run() // warm the engine's queue and touched list to high water
		}
		if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
			t.Errorf("%v: ReachabilityCtx allocated %.1f times per call, want 0", kind, allocs)
		}
	}
}
