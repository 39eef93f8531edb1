package bgpsim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// The public Trials batch routing (multi-block, duplicate lanes) must agree
// with the scalar per-leaker path, and a list one leaker under BatchLanes —
// one partial block — must give the same trials as those leakers inside the
// full blocks.
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
			t.Fatalf("leaker %d (AS%d): partial block=%+v full blocks=%+v", i, big[i], small[i], got[i])
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

// refBlockedOnAllPaths is the loop-detection pass as both engines ran it
// before they shared loopWalk: a backward scan of the whole pre-pass
// distance order. It stays here as the reference for the ancestors-only
// walk; reach is returned uncleared.
func refBlockedOnAllPaths(csr nextHopCSR, order []int32, counts []float64, leaker int32) (reach []float64, blocked []bool) {
	reach = make([]float64, len(counts))
	blocked = make([]bool, len(counts))
	reach[leaker] = 1
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		rv := reach[v]
		if rv == 0 {
			continue
		}
		for _, u := range csr.at(v) {
			reach[u] += rv
		}
	}
	total := counts[leaker]
	if total == 0 {
		return reach, blocked
	}
	for i := range blocked {
		if int32(i) == leaker {
			continue
		}
		if p := reach[i] * counts[i]; p > 0 && p >= total*(1-1e-9) {
			blocked[i] = true
		}
	}
	return reach, blocked
}

// fullPrepass is a leak-free pre-pass that settles every AS, on a fresh
// simulator: the tracked run whose rows a relay-only sweep's snapshot and
// derived stub rows must reproduce. It returns the simulator holding the
// run, the classed ASes in ascending best-length order and the path counts.
func fullPrepass(t testing.TB, g *astopo.Graph, cfg Config) (sim *Simulator, order []int32, counts []float64) {
	t.Helper()
	sim = New(g)
	cfg.TrackNextHops, cfg.Hijack = true, false
	if _, err := sim.Run(cfg); err != nil {
		t.Fatal(err)
	}
	order = sim.orderByDistance()
	counts = make([]float64, g.NumASes())
	pathCountsCSR(sim.csr(), sim.class, sim.dist, order, counts)
	return sim, order, counts
}

// The ancestors-only walk over a relay-only sweep must visit exactly the
// nodes the full-order scan of a pre-pass that settles every AS gives
// nonzero reach, sum every reach in the scan's order (bit-for-bit), mark
// the same set, and leave its scratch zeroed — for every routed leaker of
// the corpus, stubs among them, many of which have three or more tied-best
// paths, so the order within a length matters.
func TestLoopWalkMatchesFullScan(t *testing.T) {
	manyPaths := 0
	for seed := int64(0); seed < 110; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomTopology(rng)
		g.Freeze()
		all := g.ASes()
		cfg := Config{Origin: all[rng.Intn(len(all))]}
		sw, err := NewLeakSweep(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b := sw.base
		full, order, counts := fullPrepass(t, g, cfg)
		var w loopWalk
		for li := int32(0); li < int32(len(all)); li++ {
			if li == b.origin || full.class[li] == ClassNone {
				continue
			}
			if counts[li] >= 3 {
				manyPaths++
			}
			r := b.row(li, &w)
			wantReach, wantBlocked := refBlockedOnAllPaths(full.csr(), order, counts, li)
			seen := w.ancestors(b.csr, len(all), li, r.hops)
			if seen[0] != li {
				t.Fatalf("seed %d leaker %d: walk starts at %d", seed, li, seen[0])
			}
			for v := range wantReach {
				if math.Float64bits(w.reach[v]) != math.Float64bits(wantReach[v]) {
					t.Fatalf("seed %d leaker %d node %d: reach %v, full scan %v", seed, li, v, w.reach[v], wantReach[v])
				}
				if (wantReach[v] != 0) != slices.Contains(seen, int32(v)) {
					t.Fatalf("seed %d leaker %d node %d: reach %v but visited=%v", seed, li, v, wantReach[v], !(wantReach[v] != 0))
				}
			}
			for _, v := range seen {
				w.reach[v] = 0
			}
			got := make([]bool, len(all))
			for _, v := range w.onAllPaths(b.csr, b.counts, li, r) {
				if got[v] {
					t.Fatalf("seed %d leaker %d: node %d marked twice", seed, li, v)
				}
				got[v] = true
			}
			if !slices.Equal(got, wantBlocked) {
				t.Fatalf("seed %d leaker %d: walk marks %v, full scan %v", seed, li, got, wantBlocked)
			}
			for v, r := range w.reach {
				if r != 0 {
					t.Fatalf("seed %d leaker %d: reach[%d] = %v after the walk", seed, li, v, r)
				}
			}
		}
	}
	if manyPaths < 10 {
		t.Fatalf("only %d leakers with >= 3 tied-best paths", manyPaths)
	}
}

// Where path counts outgrow float64's integers the order of a sum shows in
// its bits. AS1000's 2^53+2 tied-best paths meet at AS2: 2^53 of them through
// 53 levels of provider diamonds ending in AS900, one each through two plain
// provider chains ending in AS800 and AS801. Scanned in descending index,
// A(AS2) = (2^53 + 1) + 1 = 2^53; ascending, (1 + 1) + 2^53 = 2^53 + 2.
func TestLoopWalkSumsInScanOrder(t *testing.T) {
	g := astopo.NewGraph(0, 0)
	g.MustAddLink(2, 1, astopo.P2C)
	level := []astopo.ASN{1000} // the leaker, then each level of providers above it
	chains := []astopo.ASN{1000, 1000}
	for i := 0; i < 54; i++ {
		up := []astopo.ASN{astopo.ASN(100 + 2*i), astopo.ASN(101 + 2*i)}
		next := []astopo.ASN{astopo.ASN(300 + 2*i), astopo.ASN(301 + 2*i)}
		if i == 53 {
			up, next = []astopo.ASN{900}, []astopo.ASN{800, 801}
		}
		for _, p := range up {
			for _, c := range level {
				g.MustAddLink(p, c, astopo.P2C)
			}
		}
		for k := range chains {
			g.MustAddLink(next[k], chains[k], astopo.P2C)
		}
		level, chains = up, next
	}
	for _, top := range []astopo.ASN{900, 800, 801} {
		g.MustAddLink(2, top, astopo.P2C)
	}
	sw, err := NewLeakSweep(g, Config{Origin: 1})
	if err != nil {
		t.Fatal(err)
	}
	b := sw.base
	li, _ := g.Index(1000)
	i2, _ := g.Index(2)
	full, order, counts := fullPrepass(t, g, Config{Origin: 1})
	wantReach, wantBlocked := refBlockedOnAllPaths(full.csr(), order, counts, int32(li))
	if wantReach[i2] != 1<<53 {
		t.Fatalf("full scan sums A(AS2) = %v, want 2^53: the topology no longer rounds", wantReach[i2])
	}
	var w loopWalk
	r := b.row(int32(li), &w)
	if math.Float64bits(r.paths) != math.Float64bits(counts[li]) {
		t.Fatalf("stub AS1000's derived path count %v, full pre-pass %v", r.paths, counts[li])
	}
	for _, v := range w.ancestors(b.csr, g.NumASes(), int32(li), r.hops) {
		if math.Float64bits(w.reach[v]) != math.Float64bits(wantReach[v]) {
			t.Errorf("AS%d: reach %v, full scan %v", g.ASNAt(int(v)), w.reach[v], wantReach[v])
		}
		w.reach[v] = 0
	}
	blocked := w.onAllPaths(b.csr, b.counts, int32(li), r)
	if !wantBlocked[i2] || !slices.Contains(blocked, int32(i2)) {
		t.Errorf("AS2 on every path: full scan %v, walk %v", wantBlocked[i2], blocked)
	}
}

// withdrawalTopology is a hand-built case for the one way a leak takes a
// route away instead of offering one. AS4 lies on every best path of its
// customer AS5 (AS5 -> AS4 -> {AS2, AS3} -> AS1), so its loop detection
// drops every leaked copy; AS5's other provider chain (AS6 -> AS7) hands the
// leak to AS2 and AS3 as a customer route, which both prefer to their peer
// route from the origin. When AS5 leaks, every tied-best next hop of AS4
// therefore relays only copies AS4 rejects, and AS4 must fall back to the
// longer legitimate route via AS9 -> AS8 — in AS5's lane only. AS11 has
// three tied-best paths (two via AS4, one via AS9) and leaks AS4 a customer
// route it does accept.
func withdrawalTopology() *astopo.Graph {
	g := astopo.NewGraph(0, 0)
	for _, l := range []struct {
		a, b astopo.ASN
		r    astopo.Rel
	}{
		{2, 1, astopo.P2P}, {3, 1, astopo.P2P}, {8, 1, astopo.P2P},
		{2, 4, astopo.P2C}, {3, 4, astopo.P2C}, {9, 4, astopo.P2C},
		{4, 5, astopo.P2C}, {4, 10, astopo.P2C}, {4, 11, astopo.P2C}, {9, 11, astopo.P2C},
		{6, 5, astopo.P2C}, {7, 6, astopo.P2C}, {2, 7, astopo.P2C}, {3, 7, astopo.P2C},
		{8, 9, astopo.P2C},
	} {
		g.MustAddLink(l.a, l.b, l.r)
	}
	g.Freeze()
	return g
}

func TestBatchLeakWithdrawalAndLaneMix(t *testing.T) {
	g := withdrawalTopology()
	sw, err := NewLeakSweep(g, Config{Origin: 1})
	if err != nil {
		t.Fatal(err)
	}
	i4, _ := g.Index(4)

	// The scenario is what the comment says it is, by the scalar engine.
	res, err := sw.Run(5)
	if err != nil {
		t.Fatal(err)
	}
	if sw.base.dist[i4] != 2 || res.Dist[i4] != 3 || res.Class[i4] != ClassProvider || res.Flags[i4] != ViaLegit {
		t.Fatalf("AS4 under AS5's leak: pre-pass length %d, then class %v length %d flags %b; want 2, then a legitimate provider route of length 3",
			sw.base.dist[i4], res.Class[i4], res.Dist[i4], res.Flags[i4])
	}
	if detoured(res) != 4 {
		t.Fatalf("AS5's leak detours %d ASes, want AS2, AS3, AS6, AS7", detoured(res))
	}

	leakers := []astopo.ASN{5, 10, 11, 9, 6, 7, 2, 3, 8, 4}
	weights := make([]float64, g.NumASes())
	for i := range weights {
		weights[i] = float64(i+1) / 100
	}
	bl := NewBatchLeak(g)
	got := make([]LeakTrial, len(leakers))
	if err := bl.Trials(sw, leakers, weights, got); err != nil {
		t.Fatal(err)
	}
	for i, l := range leakers {
		want, err := sw.Trial(l, weights)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Errorf("leaker AS%d: batch=%+v scalar=%+v", l, got[i], want)
		}
	}

	// Lane mix: AS4 settles AS11's lane as a customer route of length 4
	// (stage A); AS5's lane, and AS7's (whose leak lengthens what AS2 and
	// AS3 relay), as the provider route of length 3 via AS9; and every other
	// lane at its leak-free length 2 (stage C) — three sender entries.
	// AS10, whose one neighbor is its provider AS4, can leak nothing past
	// it and takes no lane, so the nine others hold lanes 0-8 in order.
	const lane5, lane11, lane7, lane4 = 1 << 0, 1 << 1, 1 << 4, 1 << 8
	type entry struct {
		log   string
		d     int
		lanes uint64
	}
	var at4 []entry
	for name, log := range map[string]settleLog{"A": bl.logs[toProviders], "B": bl.logs[toPeers], "C": bl.logs[toCustomers]} {
		for d, bucket := range log {
			for _, e := range bucket {
				if e.node == int32(i4) && e.leak != lane4 { // its own lane: AS4 as a first sender
					at4 = append(at4, entry{name, d, e.legit | e.leak})
				}
			}
		}
	}
	slices.SortFunc(at4, func(a, b entry) int { return a.d - b.d })
	want := []entry{{"C", 2, 0x1ff &^ (lane5 | lane11 | lane7 | lane4)}, {"C", 3, lane5 | lane7}, {"A", 4, lane11}}
	if !slices.Equal(at4, want) {
		t.Errorf("AS4 settles %+v, want %+v", at4, want)
	}
}

// Peer locking, an announcement policy and hijacks in one block: the origin
// (policy-filtered, passes locked receivers) and every length-0 hijacker
// (unfiltered, refused by locked receivers) are senders of the same bucket.
func TestBatchLeakLockingPolicyHijackShareFirstBucket(t *testing.T) {
	for seed := int64(0); seed < 110; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomTopology(rng)
		g.Freeze()
		n := g.NumASes()
		all := g.ASes()
		origin := all[rng.Intn(n)]
		oi, _ := g.Index(origin)
		var allowed []astopo.ASN
		locking := make([]bool, n)
		for _, rows := range [][]int32{g.ProvidersOf(oi), g.PeersOf(oi), g.CustomersOf(oi)} {
			for _, p := range rows {
				if rng.Intn(4) > 0 {
					allowed = append(allowed, g.ASNAt(int(p)))
				}
				locking[p] = rng.Intn(2) == 0
			}
		}
		for i := range locking {
			if i != oi && rng.Intn(5) == 0 {
				locking[i] = true
			}
		}
		cfg := Config{Origin: origin, Policy: NewPolicy(g, allowed), Locking: locking, Hijack: true}
		sw, err := NewLeakSweep(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var leakers []astopo.ASN
		for _, a := range all {
			if a != origin {
				leakers = append(leakers, a)
			}
		}
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = rng.Float64()
		}
		bl := NewBatchLeak(g)
		got := make([]LeakTrial, len(leakers))
		if err := bl.Trials(sw, leakers, weights, got); err != nil {
			t.Fatal(err)
		}
		if first := bl.logs[toProviders][0]; len(first) != 1+len(leakers) || first[0].node != int32(oi) {
			t.Fatalf("seed %d: length-0 bucket holds %d senders, want the origin and %d hijackers", seed, len(first), len(leakers))
		}
		for i, l := range leakers {
			want, err := sw.Trial(l, weights)
			if err != nil {
				t.Fatal(err)
			}
			if got[i] != want {
				t.Fatalf("seed %d hijacker AS%d: batch=%+v scalar=%+v", seed, l, got[i], want)
			}
		}
	}
}

// countdownCtx reports cancellation from its (after+1)-th Err call on. One
// goroutine owns each value.
type countdownCtx struct {
	context.Context
	after int
}

func (c *countdownCtx) Err() error {
	if c.after--; c.after < 0 {
		return context.Canceled
	}
	return nil
}

// A batch canceled at any length boundary of any stage leaves the engine
// reusable as it stands: no cur word set, nothing touched, no leak word or
// leaked bit left, and the next batch on it equal to a fresh engine's —
// unweighted and user-weighted alike. A completed batch leaves no leak word
// or leaked bit either.
func TestBatchLeakCancelAtEveryLengthThenReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomTopology(rng)
	g.Freeze()
	all := g.ASes()
	sw, err := NewLeakSweep(g, Config{Origin: all[0]})
	if err != nil {
		t.Fatal(err)
	}
	leakers := all[1:]
	weights := make([]float64, g.NumASes())
	for i := range weights {
		weights[i] = rng.Float64()
	}
	for _, w := range [][]float64{nil, weights} {
		want := make([]LeakTrial, len(leakers))
		if err := NewBatchLeak(g).Trials(sw, leakers, w, want); err != nil {
			t.Fatal(err)
		}
		bl := NewBatchLeak(g)
		leakZero := func(when string) {
			t.Helper()
			for v, word := range bl.leak {
				if word != 0 {
					t.Fatalf("weighted=%v %s: node %d keeps leak word %x", w != nil, when, v, word)
				}
			}
			for i, set := range bl.leaked {
				if set != 0 {
					t.Fatalf("weighted=%v %s: leaked bitset word %d is %x", w != nil, when, i, set)
				}
			}
		}
		got := make([]LeakTrial, len(leakers))
		canceled := 0
		for after := 1; ; after++ {
			// Err call 1 is TrialsCtx's entry check; call after+1 is a boundary.
			err := bl.TrialsCtx(&countdownCtx{Context: context.Background(), after: after}, sw, leakers, w, got)
			if err == nil {
				break
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("weighted=%v after %d checks: err = %v, want context.Canceled", w != nil, after, err)
			}
			canceled++
			for v, nd := range bl.nodes {
				if nd.curLegit|nd.curLeak != 0 {
					t.Fatalf("weighted=%v after %d checks: node %d keeps cur words %x/%x", w != nil, after, v, nd.curLegit, nd.curLeak)
				}
			}
			if len(bl.touched) != 0 {
				t.Fatalf("weighted=%v after %d checks: %d receivers left touched", w != nil, after, len(bl.touched))
			}
			leakZero(fmt.Sprintf("aborted after %d checks", after))
			if err := bl.Trials(sw, leakers, w, got); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("weighted=%v after %d checks: reused engine %+v, fresh engine %+v", w != nil, after, got, want)
			}
			leakZero("after the reuse block")
		}
		// Stage A and B each check once per length of stage A's log, stage C
		// once per length of the longest log.
		a, b, c := len(bl.logs[toProviders]), len(bl.logs[toPeers]), len(bl.logs[toCustomers])
		if boundaries := 2*a + max(a, b, c); canceled != boundaries || a < 2 {
			t.Fatalf("weighted=%v: canceled at %d boundaries, the block has %d (stage A spans %d lengths)", w != nil, canceled, boundaries, a)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("weighted=%v: uncanceled TrialsCtx %+v, Trials %+v", w != nil, got, want)
		}
		leakZero("after the uncanceled block")
	}
}

// BatchLeak keeps one accept word per stub because loop detection never
// closes a leak lane at a stub alone: every AS onAllPaths returns is the
// origin or has customers, since the relay-only pre-pass's next-hop DAG
// holds no stub. Checked for every routed leaker over the corpus, under
// every scenario and a config with an announcement policy, an exclusion
// mask and peer locking, ties kept and broken, with stub origins on half
// the seeds.
func TestOnAllPathsHoldsOnlyRelayers(t *testing.T) {
	stubOrigins, stubLeakers, relayers, stubOriginBlocked := 0, 0, 0, 0
	for seed := int64(0); seed < 110; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomTopology(rng)
		g.Freeze()
		n := g.NumASes()
		all := g.ASes()
		origin := all[rng.Intn(n)]
		if seed%2 == 1 {
			for _, i := range rng.Perm(n) {
				if !g.HasCustomers(i) {
					origin = all[i]
					stubOrigins++
					break
				}
			}
		}
		tier1, tier2 := randomTiers(g, rng)
		for ci, cfg := range prepassConfigs(g, origin, tier1, tier2, rng) {
			sw, err := NewLeakSweep(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			b := sw.base
			var w loopWalk
			for v := int32(0); v < int32(n); v++ {
				if v == b.origin || cfg.Exclude != nil && cfg.Exclude[v] {
					continue
				}
				r := b.row(v, &w)
				if r.class == ClassNone {
					continue
				}
				if !g.HasCustomers(int(v)) {
					stubLeakers++
				}
				for _, u := range w.onAllPaths(b.csr, b.counts, v, r) {
					switch {
					case u == b.origin:
						if !g.HasCustomers(int(u)) {
							stubOriginBlocked++
						}
					case g.HasCustomers(int(u)):
						relayers++
					default:
						t.Fatalf("seed %d config %d: leaker AS%d's loop detection holds stub AS%d",
							seed, ci, g.ASNAt(int(v)), g.ASNAt(int(u)))
					}
				}
			}
			sw.Release()
		}
	}
	if stubOrigins < 40 || stubLeakers < 5000 || relayers < 10000 || stubOriginBlocked < 1000 {
		t.Fatalf("corpus covers %d stub origins, %d routed stub leakers, %d blocked relayers, %d blocked stub origins",
			stubOrigins, stubLeakers, relayers, stubOriginBlocked)
	}
	t.Logf("%d stub origins, %d routed stub leakers, %d blocked relayers, %d blocked stub origins", stubOrigins, stubLeakers, relayers, stubOriginBlocked)
}

// Stubs are sinks: after a block, every stage-B and stage-C log entry is an
// AS with customers, and every stage-A entry is one too or is a first
// sender (the origin in every lane, a leaker in its own). The length-1
// entries of locking neighbors follow the same rule: a customerless one is
// dropped, not logged. Leaks and hijacks, with and without an announcement
// policy, peer locking and user weights, all still lane-exact.
func TestBatchLeakLogsHoldOnlyRelayers(t *testing.T) {
	stubLeakers, lockedStubs := 0, 0
	for seed := int64(0); seed < 110; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomTopology(rng)
		g.Freeze()
		n := g.NumASes()
		all := g.ASes()
		oi := rng.Intn(n)
		origin := all[oi]
		cfg := Config{Origin: origin, Hijack: rng.Intn(2) == 0}
		if rng.Intn(2) == 0 {
			var allowed []astopo.ASN
			for _, rows := range [][]int32{g.ProvidersOf(oi), g.PeersOf(oi), g.CustomersOf(oi)} {
				for _, p := range rows {
					if rng.Intn(4) > 0 {
						allowed = append(allowed, g.ASNAt(int(p)))
					}
				}
			}
			cfg.Policy = NewPolicy(g, allowed)
		}
		if rng.Intn(2) == 0 {
			cfg.Locking = make([]bool, n)
			for i := range cfg.Locking {
				cfg.Locking[i] = i != oi && rng.Intn(3) == 0
			}
			for _, rows := range [][]int32{g.PeersOf(oi), g.CustomersOf(oi)} {
				for _, p := range rows {
					if cfg.Locking[p] && !g.HasCustomers(int(p)) {
						lockedStubs++
					}
				}
			}
		}
		var weights []float64
		if rng.Intn(2) == 0 {
			weights = make([]float64, n)
			for i := range weights {
				weights[i] = rng.Float64()
			}
		}
		sw, err := NewLeakSweep(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		bl := NewBatchLeak(g)
		got := make([]LeakTrial, 1)
		// One leaker per call, so the logs checked are that block's.
		for _, l := range all {
			if l == origin {
				continue
			}
			li, _ := g.Index(l)
			if err := bl.Trials(sw, []astopo.ASN{l}, weights, got); err != nil {
				t.Fatal(err)
			}
			want, err := sw.Trial(l, weights)
			if err != nil {
				t.Fatal(err)
			}
			if got[0] != want {
				t.Fatalf("seed %d leaker AS%d: batch=%+v scalar=%+v", seed, l, got[0], want)
			}
			if live, _ := sw.base.liveLeakers([]astopo.ASN{l}, make([]LeakTrial, 1), &sw.sim.walk, nil); len(live) == 0 {
				continue // no lane, no block: the logs are the last block's
			}
			if !g.HasCustomers(li) {
				stubLeakers++
			}
			for kind, log := range bl.logs {
				for d, bucket := range log {
					for _, e := range bucket {
						if g.HasCustomers(int(e.node)) {
							continue
						}
						first := kind == toProviders &&
							(e.node == int32(oi) && d == 0 && e == settleT{node: e.node, legit: 1} ||
								e.node == int32(li) && e == settleT{node: e.node, leak: 1})
						if !first {
							t.Fatalf("seed %d leaker AS%d: customerless AS%d logged in stage %c at length %d: %+v",
								seed, l, g.ASNAt(int(e.node)), 'A'+kind, d, e)
						}
					}
				}
			}
		}
	}
	if stubLeakers < 100 || lockedStubs < 10 {
		t.Fatalf("corpus has %d routed stub leakers and %d customerless locking neighbors", stubLeakers, lockedStubs)
	}
}

// stubTieTopology is a hand-built case of keep-all-ties at a stub. Stub
// AS50 has three providers: AS10 holds the legitimate customer route
// AS10 -> AS11 -> AS1 (length 2); AS20 holds nothing until its customer AS5
// leaks its peer route from the origin AS1 (AS20 -> AS5 -> AS1, length 2);
// AS30 holds only a peer route via AS10 (length 3). Under AS5's leak, AS50
// takes two tied provider routes of length 3 — one legitimate via AS10, one
// leaked via AS20 — and the longer legitimate one via AS30 loses.
func stubTieTopology() *astopo.Graph {
	g := astopo.NewGraph(0, 0)
	for _, l := range []struct {
		a, b astopo.ASN
		r    astopo.Rel
	}{
		{11, 1, astopo.P2C}, {10, 11, astopo.P2C}, {5, 1, astopo.P2P}, {20, 5, astopo.P2C},
		{10, 30, astopo.P2P}, {10, 50, astopo.P2C}, {20, 50, astopo.P2C}, {30, 50, astopo.P2C},
	} {
		g.MustAddLink(l.a, l.b, l.r)
	}
	g.Freeze()
	return g
}

// A stub settled by a tie of a legitimate and a leaked route of one lane is
// detoured in that lane, although it enters no log as a relayer.
func TestBatchLeakStubTie(t *testing.T) {
	g := stubTieTopology()
	sw, err := NewLeakSweep(g, Config{Origin: 1})
	if err != nil {
		t.Fatal(err)
	}
	i50, _ := g.Index(50)
	if g.HasCustomers(i50) {
		t.Fatal("AS50 has customers")
	}

	// The scenario is what the comment says it is, by the scalar engine.
	res, err := sw.Run(5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Class[i50] != ClassProvider || res.Dist[i50] != 3 || res.Flags[i50] != ViaLegit|ViaLeak {
		t.Fatalf("AS50 under AS5's leak: class %v length %d flags %b; want tied legitimate and leaked provider routes of length 3",
			res.Class[i50], res.Dist[i50], res.Flags[i50])
	}
	if detoured(res) != 2 {
		t.Fatalf("AS5's leak detours %d ASes, want AS20 and AS50", detoured(res))
	}

	// Lanes: AS5 0, AS10 1, AS11 2, AS30 3, AS50 4. AS20 holds no route
	// without a leak, so it gets no lane and an all-zero trial.
	leakers := []astopo.ASN{5, 10, 11, 30, 50, 20}
	weights := make([]float64, g.NumASes())
	for i := range weights {
		weights[i] = float64(i+1) / 10
	}
	bl := NewBatchLeak(g)
	got := make([]LeakTrial, len(leakers))
	for _, w := range [][]float64{nil, weights} {
		if err := bl.Trials(sw, leakers, w, got); err != nil {
			t.Fatal(err)
		}
		for i, l := range leakers {
			want, err := sw.Trial(l, w)
			if err != nil {
				t.Fatal(err)
			}
			if got[i] != want {
				t.Errorf("weighted=%v leaker AS%d: batch=%+v scalar=%+v", w != nil, l, got[i], want)
			}
		}
		if want := 2 / float64(g.NumASes()-2); got[0].DetouredFrac != want {
			t.Errorf("weighted=%v: AS5's lane detours %v, want AS20 and AS50 (%v)", w != nil, got[0].DetouredFrac, want)
		}
	}
	for _, log := range bl.logs {
		for _, bucket := range log {
			for _, e := range bucket {
				if e.node == int32(i50) && e.leak != 1<<4 {
					t.Errorf("stub AS50 logged as a relayer: %+v", e)
				}
			}
		}
	}
}

// Scale 1.0 (CI's fullscale job): a full block and a partial one of sampled
// leakers, every §8.2 scenario, leaks and hijacks, user-weighted — lane for
// lane the scalar sweep's trials.
func TestBatchLeakMatchesScalarFullScale(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("full-scale topology: skipped with -short and under -race")
	}
	in := genInternet(t, 1.0)
	g := in.Graph
	google := in.Clouds["Google"]
	rng := rand.New(rand.NewSource(5))
	weights := make([]float64, g.NumASes())
	for i := range weights {
		weights[i] = rng.Float64()
	}
	leakers := SampleLeakers(g, google, BatchLanes+16, 7)
	bl := NewBatchLeak(g)
	got := make([]LeakTrial, len(leakers))
	for _, scen := range LeakScenarios() {
		for _, hijack := range []bool{false, true} {
			cfg := ScenarioConfig(g, google, in.Tier1, in.Tier2, scen)
			cfg.Hijack = hijack
			sw, err := NewLeakSweep(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := bl.Trials(sw, leakers, weights, got); err != nil {
				t.Fatalf("%v hijack=%v: %v", scen, hijack, err)
			}
			detours := 0
			for i, l := range leakers {
				want, err := sw.Trial(l, weights)
				if err != nil {
					t.Fatal(err)
				}
				if got[i] != want {
					t.Fatalf("%v hijack=%v leaker AS%d: batch=%+v scalar=%+v", scen, hijack, l, got[i], want)
				}
				if want.DetouredFrac > 0 {
					detours++
				}
			}
			if detours == 0 {
				t.Errorf("%v hijack=%v: no sampled leaker detours anything", scen, hijack)
			}
			sw.Release()
		}
	}
}
