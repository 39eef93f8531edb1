package bgpsim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"flatnet/internal/astopo"
)

// A Simulator resets and scans only the ASes its latest propagation
// touched, so whatever a run leaves behind — an untracked run before a
// tracked one, a leak pre-pass, a run canceled between stages, the arrays
// a LeakSweep pre-pass swaps in — must be invisible to the next run. One
// reused simulator (also serving as a LeakSweep's) runs a seeded random
// sequence of configs over the 110-topology corpus and the preset-0.02
// world; every answer must equal a fresh simulator's for the same config,
// and plain configs must equal the reference engine's fixed point. Leaks
// run through the from-scratch reference (refLeakRun) and the sweep.
func TestReusedSimulatorMatchesFresh(t *testing.T) {
	for seed := int64(0); seed < 110; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomTopology(rng)
		g.Freeze()
		tier1, tier2 := randomTiers(g, rng)
		checkReusedMatchesFresh(t, g, tier1, tier2, rng, 24, 24, fmt.Sprintf("seed %d", seed))
	}
	in := genInternet(t, 0.02)
	checkReusedMatchesFresh(t, in.Graph, in.Tier1, in.Tier2, rand.New(rand.NewSource(5)), 60, 6, "preset 0.02")
}

// checkReusedMatchesFresh runs steps random operations on one simulator and
// checks up to oracleRuns of its plain Results (no leak, policy, locking or
// tie-breaking) against refPropagate.
func checkReusedMatchesFresh(t *testing.T, g *astopo.Graph, tier1, tier2 astopo.ASSet, rng *rand.Rand, steps, oracleRuns int, label string) {
	t.Helper()
	n := g.NumASes()
	reused := New(g)
	sw := &LeakSweep{base: &sweepBase{g: g}, sim: reused, ownsBase: true}
	swept := false
	oracle := func(res *Result, cfg Config, leaker astopo.ASN, at string) {
		if leaker != 0 || cfg.Policy != nil || cfg.Locking != nil || cfg.BreakTies || oracleRuns == 0 {
			return
		}
		oracleRuns--
		if msg := diffReference(g, res, cfg); msg != "" {
			t.Fatalf("%s: reference %s", at, msg)
		}
	}
	// Every operation comes up at least steps/7 times, in random order.
	ops := make([]int, steps)
	for i := range ops {
		ops[i] = i % 7
	}
	rng.Shuffle(steps, func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	for step, op := range ops {
		cfg, leaker := randomConfig(g, tier1, tier2, rng)
		at := fmt.Sprintf("%s step %d (origin AS%d, leaker AS%d, hijack %v, track %v, ties %v, exclude %v, locking %v, policy %v)",
			label, step, cfg.Origin, leaker, cfg.Hijack, cfg.TrackNextHops, cfg.BreakTies,
			cfg.Exclude != nil, cfg.Locking != nil, cfg.Policy != nil)
		want, wantErr := refLeakRun(New(g), cfg, leaker)
		switch {
		case op == 0: // canceled at a random stage or bucket boundary
			ctx := &countdownCtx{Context: context.Background(), after: 1 + rng.Intn(6)}
			var err error
			if leaker == 0 && rng.Intn(2) == 0 {
				_, _, err = reused.RelianceCtx(ctx, cfg)
			} else {
				// Cancel through the hook LeakSweep.TrialCtx sets, after
				// the same up-front check: a run aborts between distance
				// buckets once ctx is done.
				if err = ctx.Err(); err == nil {
					reused.ctx = ctx
					_, err = refLeakRun(reused, cfg, leaker)
					reused.ctx = nil
				}
			}
			if err != nil && wantErr == nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: canceled run: %v", at, err)
			}
		case op == 1 && wantErr == nil:
			// A Clone owns its state: another run on the simulator that
			// lent the view must leave it as the fresh result.
			got, err := refLeakRun(reused, cfg, leaker)
			if err != nil {
				t.Fatalf("%s: Run: %v", at, err)
			}
			held := got.Clone()
			if _, err := reused.Run(Config{Origin: g.ASNAt(rng.Intn(n)), TrackNextHops: true}); err != nil {
				t.Fatalf("%s: second Run: %v", at, err)
			}
			if msg := diffResults(held, want); msg != "" {
				t.Fatalf("%s: Clone after another run %s", at, msg)
			}
			oracle(held, cfg, leaker, at)
		case op == 2 && leaker == 0 && wantErr == nil:
			got, err := reused.ReachabilityCount(cfg)
			if err != nil || got != want.Reachable() {
				t.Fatalf("%s: ReachabilityCount = %d, %v; fresh Run reaches %d", at, got, err, want.Reachable())
			}
		case op == 3 && leaker == 0 && wantErr == nil:
			checkRelianceMatches(t, reused, cfg, at)
		case op == 4 && wantErr == nil:
			// The sweep's pre-pass swaps the simulator's arrays for the
			// previous snapshot's; then replay the leaker on the swapped-in ones.
			if err := sw.prepass(cfg); err != nil {
				t.Fatalf("%s: pre-pass: %v", at, err)
			}
			swept = true
			if leaker == 0 {
				break
			}
			got, err := sw.Run(leaker)
			if err != nil {
				t.Fatalf("%s: sweep Run: %v", at, err)
			}
			if msg := diffResults(got, want); msg != "" {
				t.Fatalf("%s: sweep Run %s", at, msg)
			}
			tr, err := sw.Trial(leaker, nil)
			if wantFrac := float64(detoured(want)) / float64(n-2); err != nil || tr.DetouredFrac != wantFrac {
				t.Fatalf("%s: sweep Trial = %v, %v; fresh Run detours %v", at, tr.DetouredFrac, err, wantFrac)
			}
		default:
			got, err := refLeakRun(reused, cfg, leaker)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("%s: Run err = %v, fresh err = %v", at, err, wantErr)
			}
			if err != nil {
				break
			}
			if msg := diffResults(got, want); msg != "" {
				t.Fatalf("%s: Run %s", at, msg)
			}
			oracle(got, cfg, leaker, at)
		}
	}
	if !swept {
		t.Fatalf("%s: no step ran the LeakSweep pre-pass", label)
	}
}

// randomConfig draws an origin and every Config dimension: one of the four
// reachability kinds' masks (none, providers, +Tier-1, +Tier-2), a §8.2
// scenario's policy or locking, tracking, tie-breaking, and — one time in
// four — a leak or hijack by a leaker outside the mask (0 otherwise).
func randomConfig(g *astopo.Graph, tier1, tier2 astopo.ASSet, rng *rand.Rand) (cfg Config, leaker astopo.ASN) {
	n := g.NumASes()
	oi := rng.Intn(n)
	origin := g.ASNAt(oi)
	cfg = Config{Origin: origin}
	if scens := LeakScenarios(); rng.Intn(2) == 0 {
		cfg = ScenarioConfig(g, origin, tier1, tier2, scens[rng.Intn(len(scens))])
	}
	if kind := rng.Intn(4); kind > 0 {
		mask := make([]bool, n)
		for _, set := range []astopo.ASSet{tier1, tier2}[:kind-1] {
			for a := range set {
				if i, ok := g.Index(a); ok {
					mask[i] = true
				}
			}
		}
		mask[oi] = false
		for _, p := range g.ProvidersOf(oi) {
			mask[p] = true
		}
		cfg.Exclude = mask
	}
	cfg.TrackNextHops = rng.Intn(3) > 0
	cfg.BreakTies = rng.Intn(6) == 0
	if rng.Intn(4) == 0 {
		for try := 0; try < 8; try++ {
			li := rng.Intn(n)
			if li != oi && (cfg.Exclude == nil || !cfg.Exclude[li]) {
				leaker = g.ASNAt(li)
				cfg.Hijack = rng.Intn(3) == 0
				break
			}
		}
	}
	return cfg, leaker
}

// diffResults describes the first difference between two Results' Class,
// Dist, Flags and next-hop lists, or returns "".
func diffResults(got, want *Result) string {
	switch {
	case got.Origin != want.Origin || got.LeakerIdx != want.LeakerIdx:
		return fmt.Sprintf("origin/leaker %d/%d, fresh %d/%d", got.Origin, got.LeakerIdx, want.Origin, want.LeakerIdx)
	case !slices.Equal(got.Class, want.Class):
		return "Class differs from a fresh simulator's"
	case !slices.Equal(got.Dist, want.Dist):
		return "Dist differs from a fresh simulator's"
	case !slices.Equal(got.Flags, want.Flags):
		return "Flags differ from a fresh simulator's"
	case got.tracked() != want.tracked():
		return fmt.Sprintf("NextHops tracked %v, fresh %v", got.tracked(), want.tracked())
	}
	for i := range want.Class {
		if v := int32(i); !slices.Equal(got.NextHops(v), want.NextHops(v)) {
			return fmt.Sprintf("NextHops(%d) = %v, fresh %v", i, got.NextHops(v), want.NextHops(v))
		}
	}
	return ""
}

// diffReference compares a plain Result with refPropagate: classes and
// lengths, and next-hop sets when tracked.
func diffReference(g *astopo.Graph, res *Result, cfg Config) string {
	ref := refPropagate(g, cfg.Origin, cfg.Exclude)
	for i := range ref {
		if int32(i) == res.Origin {
			continue
		}
		if ref[i].class != res.Class[i] || ref[i].dist != res.Dist[i] {
			return fmt.Sprintf("AS%d: reference %v/%d, sim %v/%d", g.ASNAt(i), ref[i].class, ref[i].dist, res.Class[i], res.Dist[i])
		}
		if ref[i].class == ClassNone || !res.tracked() {
			continue
		}
		got := map[int32]bool{}
		for _, h := range res.NextHops(int32(i)) {
			got[h] = true
		}
		if !sameSet(ref[i].nhops, got) {
			return fmt.Sprintf("AS%d: reference next hops %v, sim %v", g.ASNAt(i), ref[i].nhops, got)
		}
	}
	return ""
}

// checkRelianceMatches runs RelianceCtx on sim and compares it, entry for
// entry and bit for bit, with a fresh simulator's Result.Reliance; the
// holders must be exactly the route holders, ascending.
func checkRelianceMatches(t *testing.T, sim *Simulator, cfg Config, at string) {
	t.Helper()
	got, holders, err := sim.RelianceCtx(context.Background(), cfg)
	if err != nil {
		t.Fatalf("%s: RelianceCtx: %v", at, err)
	}
	cfg.TrackNextHops = true
	res, err := New(sim.g).Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := res.Reliance()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: rely[%d] = %v, fresh %v", at, i, got[i], want[i])
		}
	}
	var wantHolders []int32
	for i, c := range res.Class {
		if c != ClassNone {
			wantHolders = append(wantHolders, int32(i))
		}
	}
	if !slices.Equal(holders, wantHolders) {
		t.Fatalf("%s: holders %v, route holders %v", at, holders, wantHolders)
	}
}
