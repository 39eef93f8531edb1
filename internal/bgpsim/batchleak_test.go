package bgpsim

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"flatnet/internal/astopo"
)

// randomTiers draws random Tier-1/Tier-2 sets for scenario construction:
// the provider-free top ASes as Tier-1 plus a random sprinkle of others as
// Tier-2, so every LeakScenario exercises non-trivial locking/policy sets
// on some seeds and degenerate (empty) ones on others.
func randomTiers(g *astopo.Graph, rng *rand.Rand) (tier1, tier2 astopo.ASSet) {
	var t1, t2 []astopo.ASN
	for _, a := range g.ASes() {
		if len(g.Providers(a)) == 0 {
			t1 = append(t1, a)
		} else if rng.Intn(3) == 0 {
			t2 = append(t2, a)
		}
	}
	return astopo.NewASSet(t1...), astopo.NewASSet(t2...)
}

// The batch engine must produce, lane for lane, exactly the LeakTrial the
// scalar sweep computes — detoured counts and user-weighted fractions —
// across every §8.2 scenario, hijacks included, with leakers of every
// shape (provider-free top ASes, stub ASes, ASes the policy leaves
// routeless). BreakTies configs must be refused by the engine and keep
// matching through the public Trials routing (which falls back to scalar).
func TestBatchLeakMatchesScalar(t *testing.T) {
	for seed := int64(0); seed < 110; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomTopology(rng)
		g.Freeze()
		n := g.NumASes()
		all := g.ASes()
		origin := all[rng.Intn(len(all))]
		tier1, tier2 := randomTiers(g, rng)

		var weights []float64
		if rng.Intn(2) == 1 {
			weights = make([]float64, n)
			for i := range weights {
				weights[i] = rng.Float64()
			}
		}
		leakers := make([]astopo.ASN, 0, n-1)
		for _, a := range all {
			if a != origin {
				leakers = append(leakers, a)
			}
		}

		bl := NewBatchLeak(g)
		for _, scen := range LeakScenarios() {
			cfg := ScenarioConfig(g, origin, tier1, tier2, scen)
			cfg.Hijack = rng.Intn(3) == 0
			sweep, err := NewLeakSweep(g, cfg)
			if err != nil {
				t.Fatalf("seed %d scenario %v: %v", seed, scen, err)
			}
			got := make([]LeakTrial, len(leakers))
			if err := bl.Trials(sweep, leakers, weights, got); err != nil {
				t.Fatalf("seed %d scenario %v: batch: %v", seed, scen, err)
			}
			for i, l := range leakers {
				want, err := sweep.Trial(l, weights)
				if err != nil {
					t.Fatalf("seed %d scenario %v leaker AS%d: %v", seed, scen, l, err)
				}
				if got[i] != want {
					t.Fatalf("seed %d scenario %v (hijack=%v) leaker AS%d: batch=%+v scalar=%+v",
						seed, scen, cfg.Hijack, l, got[i], want)
				}
			}

			// BreakTies is inherently scalar: the engine refuses it and the
			// public routing must go around it, still trial-exact. Four
			// workers, whatever GOMAXPROCS is, so the cloned scalar arm runs
			// concurrently under -race.
			cfg.BreakTies = true
			tieSweep, err := NewLeakSweep(g, cfg)
			if err != nil {
				t.Fatalf("seed %d scenario %v: %v", seed, scen, err)
			}
			if err := bl.Trials(tieSweep, leakers, weights, got); err == nil {
				t.Fatalf("seed %d scenario %v: batch engine accepted a BreakTies sweep", seed, scen)
			}
			if seed%16 == 0 {
				big := padLeakers(leakers, BatchLanes)
				res, err := tieSweep.TrialsN(context.Background(), big, weights, 4)
				if err != nil {
					t.Fatalf("seed %d scenario %v: tie Trials: %v", seed, scen, err)
				}
				ref := tieSweep.Clone()
				for i, l := range big {
					want, err := ref.Trial(l, weights)
					if err != nil {
						t.Fatalf("seed %d scenario %v leaker AS%d: %v", seed, scen, l, err)
					}
					if res[i] != want {
						t.Fatalf("seed %d scenario %v (ties) leaker AS%d: Trials=%+v Trial=%+v",
							seed, scen, l, res[i], want)
					}
				}
			}
		}
	}
}

// padLeakers repeats leakers (duplicates are independent lanes) until the
// list spans at least min entries, forcing the batch routing threshold.
func padLeakers(leakers []astopo.ASN, min int) []astopo.ASN {
	out := append([]astopo.ASN(nil), leakers...)
	for i := 0; len(out) < min; i++ {
		out = append(out, leakers[i%len(leakers)])
	}
	return out
}

// The public Trials batch routing (>= BatchLanes leakers, multi-block,
// duplicate lanes) must agree with the scalar per-leaker path — both by
// direct Trial calls and through the same public routing one leaker under
// BatchLanes, where the input size alone picks the scalar arm.
func TestLeakTrialsBatchRouting(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomTopology(rng)
	g.Freeze()
	all := g.ASes()
	origin := all[0]
	var leakers []astopo.ASN
	for _, a := range all {
		if a != origin {
			leakers = append(leakers, a)
		}
	}
	// Two-plus blocks with duplicates spread across block boundaries.
	big := padLeakers(leakers, 2*BatchLanes+17)
	sweep, err := NewLeakSweep(g, Config{Origin: origin})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sweep.Trials(context.Background(), big, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := sweep.Clone()
	for i, l := range big {
		want, err := ref.Trial(l, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Fatalf("leaker %d (AS%d): batch=%+v scalar=%+v", i, l, got[i], want)
		}
	}
	small, err := sweep.Trials(context.Background(), big[:BatchLanes-1], nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range small {
		if small[i] != got[i] {
			t.Fatalf("leaker %d (AS%d): scalar-routed=%+v batch-routed=%+v", i, big[i], small[i], got[i])
		}
	}
}

// WithHijack shares the pre-pass snapshot; its trials must equal a sweep
// built from scratch with the Hijack flag set.
func TestWithHijackMatchesFreshSweep(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomTopology(rng)
		g.Freeze()
		all := g.ASes()
		origin := all[rng.Intn(len(all))]
		var leakers []astopo.ASN
		for _, a := range all {
			if a != origin {
				leakers = append(leakers, a)
			}
		}
		leakSweep, err := NewLeakSweep(g, Config{Origin: origin})
		if err != nil {
			t.Fatal(err)
		}
		if leakSweep.WithHijack(false) != leakSweep {
			t.Fatal("WithHijack(false) on a leak sweep should return the receiver")
		}
		hijackSweep, err := NewLeakSweep(g, Config{Origin: origin, Hijack: true})
		if err != nil {
			t.Fatal(err)
		}
		shared := leakSweep.WithHijack(true)
		for _, l := range leakers {
			want, err := hijackSweep.Trial(l, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := shared.Trial(l, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("seed %d leaker AS%d: WithHijack=%+v fresh=%+v", seed, l, got, want)
			}
		}
	}
}

func TestBatchLeakValidation(t *testing.T) {
	g := astopo.NewGraph(0, 0)
	g.MustAddLink(1, 2, astopo.P2C)
	g.MustAddLink(2, 3, astopo.P2C)
	sweep, err := NewLeakSweep(g, Config{Origin: 3})
	if err != nil {
		t.Fatal(err)
	}
	bl := NewBatchLeak(g)
	out := make([]LeakTrial, 4)

	if err := bl.Trials(sweep, []astopo.ASN{9}, nil, out); err == nil {
		t.Error("expected error for leaker not in graph")
	}
	if err := bl.Trials(sweep, []astopo.ASN{3}, nil, out); err == nil {
		t.Error("expected error for leaker == origin")
	}
	if err := bl.Trials(sweep, []astopo.ASN{1, 2}, nil, out[:1]); err == nil {
		t.Error("expected error for short out")
	}
	if err := bl.Trials(sweep, []astopo.ASN{1}, make([]float64, 1), out); err == nil {
		t.Error("expected error for wrong weights length")
	}
	other := astopo.NewGraph(0, 0)
	other.MustAddLink(1, 2, astopo.P2C)
	if err := NewBatchLeak(other).Trials(sweep, []astopo.ASN{1}, nil, out); err == nil {
		t.Error("expected error for engine/sweep graph mismatch")
	}
	excl := make([]bool, g.NumASes())
	i1, _ := g.Index(1)
	excl[i1] = true
	exSweep, err := NewLeakSweep(g, Config{Origin: 3, Exclude: excl})
	if err != nil {
		t.Fatal(err)
	}
	if err := bl.Trials(exSweep, []astopo.ASN{1}, nil, out); err == nil {
		t.Error("expected error for excluded leaker")
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := bl.TrialsCtx(canceled, sweep, []astopo.ASN{1}, nil, out); err != context.Canceled {
		t.Errorf("TrialsCtx on canceled ctx: got %v, want context.Canceled", err)
	}
}

// A steady-state batch block must not allocate: the word buffers, the
// dial-queue buckets, and the loop-detection scratch are all
// high-water-reused across calls.
func TestBatchLeakAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector's shadow allocations break AllocsPerRun")
	}
	rng := rand.New(rand.NewSource(42))
	g := randomTopology(rng)
	g.Freeze()
	all := g.ASes()
	origin := all[0]
	var leakers []astopo.ASN
	for _, a := range all {
		if a != origin {
			leakers = append(leakers, a)
		}
	}
	sweep, err := NewLeakSweep(g, Config{Origin: origin})
	if err != nil {
		t.Fatal(err)
	}
	weights := make([]float64, g.NumASes())
	for i := range weights {
		weights[i] = rng.Float64()
	}
	bl := NewBatchLeak(g)
	out := make([]LeakTrial, len(leakers))
	// Warm the buckets' and scratch lists' high-water capacity.
	if err := bl.Trials(sweep, leakers, weights, out); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := bl.Trials(sweep, leakers, weights, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state batch block allocated %.1f times per run, want 0", allocs)
	}
}

// Concurrent engines over one shared sweep snapshot must not interfere:
// the snapshot is read-only and every mutable word lives in the engine.
// Run under -race this gates the scratch sharing.
func TestBatchLeakConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomTopology(rng)
	g.Freeze()
	all := g.ASes()
	origin := all[0]
	var leakers []astopo.ASN
	for _, a := range all {
		if a != origin {
			leakers = append(leakers, a)
		}
	}
	sweep, err := NewLeakSweep(g, Config{Origin: origin})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]LeakTrial, len(leakers))
	if err := NewBatchLeak(g).Trials(sweep, leakers, nil, want); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bl := NewBatchLeak(g)
			got := make([]LeakTrial, len(leakers))
			for rep := 0; rep < 8; rep++ {
				if err := bl.Trials(sweep, leakers, nil, got); err != nil {
					t.Error(err)
					return
				}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("leaker AS%d: got %+v want %+v", leakers[i], got[i], want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
