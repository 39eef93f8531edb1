package bgpsim

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"flatnet/internal/astopo"
	"flatnet/internal/topogen"
)

// requireResultsIdentical asserts two leak Results are bit-identical in
// every field the figures consume.
func requireResultsIdentical(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if got.Origin != want.Origin || got.LeakerIdx != want.LeakerIdx {
		t.Fatalf("%s: origin/leaker = (%d,%d), want (%d,%d)",
			label, got.Origin, got.LeakerIdx, want.Origin, want.LeakerIdx)
	}
	for i := range want.Class {
		if got.Class[i] != want.Class[i] {
			t.Fatalf("%s: Class[%d] = %v, want %v", label, i, got.Class[i], want.Class[i])
		}
		if got.Dist[i] != want.Dist[i] {
			t.Fatalf("%s: Dist[%d] = %d, want %d", label, i, got.Dist[i], want.Dist[i])
		}
		if got.Flags[i] != want.Flags[i] {
			t.Fatalf("%s: Flags[%d] = %b, want %b", label, i, got.Flags[i], want.Flags[i])
		}
	}
	if want.tracked() != got.tracked() {
		t.Fatalf("%s: NextHops presence mismatch", label)
	}
	for i := range want.Class {
		v := int32(i)
		w, g := want.NextHops(v), got.NextHops(v)
		if len(w) != len(g) {
			t.Fatalf("%s: NextHops[%d] len %d, want %d", label, v, len(g), len(w))
		}
		for k := range w {
			if w[k] != g[k] {
				t.Fatalf("%s: NextHops[%d][%d] = %d, want %d", label, v, k, g[k], w[k])
			}
		}
	}
	if detoured(want) != detoured(got) {
		t.Fatalf("%s: detoured = %d, want %d", label, detoured(got), detoured(want))
	}
}

// The cached-pre-pass sweep must reproduce the from-scratch reference
// (refLeakRun) bit-for-bit across every scenario configuration of §8.2,
// including restricted announcement policies and peer locking.
func TestLeakSweepMatchesRunAcrossScenarios(t *testing.T) {
	in := genInternet(t, 0.01425)
	g := in.Graph
	origin := in.Clouds["Google"]
	leakers := SampleLeakers(g, origin, 40, 13)
	weights := make([]float64, g.NumASes())
	for i := range weights {
		weights[i] = float64(i%17) * 0.25
	}
	for _, scen := range LeakScenarios() {
		cfg := ScenarioConfig(g, origin, in.Tier1, in.Tier2, scen)
		cfg.TrackNextHops = true
		sweep, err := NewLeakSweep(g, cfg)
		if err != nil {
			t.Fatalf("%v: %v", scen, err)
		}
		sim := New(g)
		for _, l := range leakers {
			want, err := refLeakRun(sim, cfg, l)
			if err != nil {
				t.Fatalf("%v leaker AS%d: reference: %v", scen, l, err)
			}
			got, err := sweep.Run(l)
			if err != nil {
				t.Fatalf("%v leaker AS%d: sweep: %v", scen, l, err)
			}
			requireResultsIdentical(t, scen.String(), want, got)
			if ww, gw := detouredWeight(want, weights), detouredWeight(got, weights); ww != gw {
				t.Fatalf("%v leaker AS%d: detoured weight = %v, want %v", scen, l, gw, ww)
			}
			tr, err := sweep.Trial(l, weights)
			if err != nil {
				t.Fatalf("%v leaker AS%d: Trial: %v", scen, l, err)
			}
			denom := float64(g.NumASes() - 2)
			if wantFrac := float64(detoured(want)) / denom; tr.DetouredFrac != wantFrac {
				t.Fatalf("%v leaker AS%d: Trial frac = %v, want %v", scen, l, tr.DetouredFrac, wantFrac)
			}
			if tr.DetouredUserFrac != detouredWeight(want, weights) {
				t.Fatalf("%v leaker AS%d: Trial user frac = %v, want %v",
					scen, l, tr.DetouredUserFrac, detouredWeight(want, weights))
			}
		}
	}
}

// Hijacks compete at length zero with no loop detection; the sweep must
// take the same path as the reference for them.
func TestLeakSweepMatchesRunHijack(t *testing.T) {
	in := genInternet(t, 0.01425)
	g := in.Graph
	origin := in.Clouds["Google"]
	leakers := SampleLeakers(g, origin, 25, 29)
	cfg := Config{Origin: origin, Hijack: true, TrackNextHops: true}
	sweep, err := NewLeakSweep(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim := New(g)
	for _, l := range leakers {
		want, err := refLeakRun(sim, cfg, l)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sweep.Run(l)
		if err != nil {
			t.Fatal(err)
		}
		requireResultsIdentical(t, "hijack", want, got)
	}
}

// A leaker with no legitimate route leaks nothing: both paths must return
// the leak-free state with everything marked legitimate.
func TestLeakSweepNoRouteLeaker(t *testing.T) {
	g := mustGraph(t,
		p2c(20, 10),
		p2p(40, 41), // island disconnected from the origin
	)
	for _, track := range []bool{false, true} {
		cfg := Config{Origin: 10, TrackNextHops: track}
		sweep, err := NewLeakSweep(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refLeakRun(New(g), cfg, 40)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sweep.Run(40)
		if err != nil {
			t.Fatal(err)
		}
		requireResultsIdentical(t, "no-route leaker", want, got)
		tr, err := sweep.Trial(40, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tr.DetouredFrac != 0 || tr.DetouredUserFrac != 0 {
			t.Fatalf("no-route trial = %+v, want zero detours", tr)
		}
	}
}

// A sweep is shared, not cloned: TrialsN, Trial and Run called from
// several goroutines on one sweep — plain, peer-locking, tie-breaking and
// hijack configs — must each equal the serial answers (and race-free under
// -race).
func TestLeakSweepSharedMatchesSerial(t *testing.T) {
	in := genInternet(t, 0.01425)
	g := in.Graph
	origin := in.Clouds["Google"]
	leakers := SampleLeakers(g, origin, 24, 5)
	cfgs := []Config{
		{Origin: origin},
		ScenarioConfig(g, origin, in.Tier1, in.Tier2, AnnounceAllLockAll),
		{Origin: origin, BreakTies: true},
		{Origin: origin, Hijack: true},
	}
	ctx := context.Background()
	for ci, cfg := range cfgs {
		sweep, err := NewLeakSweep(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantTrials, err := sweep.TrialsN(ctx, leakers, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		wantRuns := make([]*Result, 3)
		for i := range wantRuns {
			if wantRuns[i], err = sweep.Run(leakers[i]); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		errs := make(chan error, 16)
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := sweep.TrialsN(ctx, leakers, nil, 2)
				if err != nil {
					errs <- err
					return
				}
				for i, l := range leakers {
					tr, err := sweep.Trial(l, nil)
					if err != nil || tr != wantTrials[i] || got[i] != wantTrials[i] {
						errs <- fmt.Errorf("config %d leaker AS%d: TrialsN %+v, Trial %+v (%v), serial %+v", ci, l, got[i], tr, err, wantTrials[i])
						return
					}
				}
				for i, want := range wantRuns {
					res, err := sweep.Run(leakers[i])
					if err != nil {
						errs <- err
						return
					}
					if msg := diffResults(res, want); msg != "" {
						errs <- fmt.Errorf("config %d leaker AS%d: shared Run %s", ci, leakers[i], msg)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
}

// A simulator's loop-detection marks are its own: neither a batch sweep's
// live-leaker walk between two scalar trials on one sweep, nor another
// walk over the simulator's own scratch, may leave a mark the next trial
// reads. Over the corpus and every scenario, TrialsN and then Trial on one
// sweep must equal Trial on a fresh sweep and simulator, and so must a
// trial on one simulator after its walk served another leaker.
func TestLeakSweepTrialAfterOtherWalksMatchesFresh(t *testing.T) {
	checked := 0
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomTopology(rng)
		g.Freeze()
		all := g.ASes()
		origin := all[rng.Intn(len(all))]
		tier1, tier2 := randomTiers(g, rng)
		leakers := slices.DeleteFunc(slices.Clone(all), func(a astopo.ASN) bool { return a == origin })
		for _, scen := range LeakScenarios() {
			cfg := ScenarioConfig(g, origin, tier1, tier2, scen)
			sweep, err := NewLeakSweep(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sweep.TrialsN(context.Background(), leakers, nil, 1); err != nil {
				t.Fatal(err)
			}
			fresh, err := NewLeakSweep(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sim := New(g)
			for _, l := range leakers {
				want, err := fresh.trial(New(g), l, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sweep.Trial(l, nil)
				if err != nil {
					t.Fatal(err)
				}
				// Walk another leaker's ancestry on sim's own scratch
				// between two trials on sim.
				oi, _ := g.Index(leakers[rng.Intn(len(leakers))])
				if r := sweep.row(int32(oi), &sim.walk); r.class != ClassNone {
					sim.walk.onAllPaths(&sweep.leakDAG, int32(oi), r)
				}
				onSim, err := sweep.trial(sim, l, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got != want || onSim != want {
					t.Fatalf("seed %d %v leaker AS%d: after TrialsN %+v, after another walk %+v, fresh %+v",
						seed, scen, l, got, onSim, want)
				}
				checked++
			}
		}
	}
	t.Logf("%d trials", checked)
}

func TestLeakSweepErrors(t *testing.T) {
	g := mustGraph(t, p2c(20, 10), p2c(30, 20))
	if _, err := NewLeakSweep(g, Config{Origin: 9999}); err == nil {
		t.Error("unknown origin accepted")
	}
	sweep, err := NewLeakSweep(g, Config{Origin: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sweep.Trial(9999, nil); err == nil {
		t.Error("unknown leaker accepted")
	}
	if _, err := sweep.Trial(10, nil); err == nil {
		t.Error("leaker == origin accepted")
	}
	if _, err := sweep.Run(9999); err == nil {
		t.Error("Run with unknown leaker accepted")
	}
	if _, err := sweep.Run(10); err == nil {
		t.Error("Run with leaker == origin accepted")
	}
}

// Steady-state sweep iterations must not allocate: the pre-pass is cached
// and the propagation works entirely in reused simulator buffers.
func TestLeakSweepTrialAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	in := genInternet(t, 0.00713)
	g := in.Graph
	origin := in.Clouds["Google"]
	leakers := SampleLeakers(g, origin, 8, 3)
	sweep, err := NewLeakSweep(g, Config{Origin: origin})
	if err != nil {
		t.Fatal(err)
	}
	// Warm the dial queue and arena high-water marks.
	for _, l := range leakers {
		if _, err := sweep.Trial(l, nil); err != nil {
			t.Fatal(err)
		}
	}
	k := 0
	avg := testing.AllocsPerRun(50, func() {
		if _, err := sweep.Trial(leakers[k%len(leakers)], nil); err != nil {
			t.Fatal(err)
		}
		k++
	})
	if avg > 0.5 {
		t.Errorf("LeakSweep.Trial allocates %.1f objects/op in steady state, want ~0", avg)
	}
}

// Steady-state ReachabilityCount sweeps must not allocate either.
func TestReachabilityCountAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	in := genInternet(t, 0.00713)
	g := in.Graph
	sim := New(g)
	origins := g.ASes()
	for _, o := range origins[:10] {
		if _, err := sim.ReachabilityCount(Config{Origin: o}); err != nil {
			t.Fatal(err)
		}
	}
	k := 0
	avg := testing.AllocsPerRun(50, func() {
		if _, err := sim.ReachabilityCount(Config{Origin: origins[k%len(origins)]}); err != nil {
			t.Fatal(err)
		}
		k++
	})
	if avg > 0.5 {
		t.Errorf("ReachabilityCount allocates %.1f objects/op in steady state, want ~0", avg)
	}
}

// Regression for the worker-pool deadlock: with the old unbuffered feeder
// channel, a failing config made every worker exit early and the feeder
// block forever. A one-job RunLeakJobs call must return the error instead
// of hanging.
func TestRunLeakJobsErrorReturnsInsteadOfHanging(t *testing.T) {
	g := mustGraph(t, p2c(20, 10), p2c(30, 20))
	// More bad leakers than workers, so the old feeder would have had
	// unclaimed items left after every worker died.
	bad := make([]astopo.ASN, 2*runtime.GOMAXPROCS(0)+8)
	for i := range bad {
		bad[i] = 9999 // not in the graph
	}
	done := make(chan error, 1)
	go func() {
		_, err := RunLeakJobs(context.Background(), []LeakJob{{Graph: g, Config: Config{Origin: 10}, Leakers: bad}})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("RunLeakJobs with failing configs returned no error")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunLeakJobs deadlocked on a failing config")
	}
}

// A one-job RunLeakJobs call (the batched engine) must agree with the
// from-scratch reference, leaker by leaker and in input order.
func TestRunLeakJobsOneJobMatchesPerTrialRuns(t *testing.T) {
	in := genInternet(t, 0.01425)
	g := in.Graph
	origin := in.Clouds["Google"]
	leakers := SampleLeakers(g, origin, 30, 11)
	cfg := ScenarioConfig(g, origin, in.Tier1, in.Tier2, AnnounceAllLockT1)
	jobs, err := RunLeakJobs(context.Background(), []LeakJob{{Graph: g, Config: cfg, Leakers: leakers}})
	if err != nil {
		t.Fatal(err)
	}
	trials := jobs[0]
	sim := New(g)
	denom := float64(g.NumASes() - 2)
	for i, l := range leakers {
		res, err := refLeakRun(sim, cfg, l)
		if err != nil {
			t.Fatal(err)
		}
		want := float64(detoured(res)) / denom
		if trials[i].DetouredFrac != want {
			t.Fatalf("leaker AS%d: trial frac %v, want %v", l, trials[i].DetouredFrac, want)
		}
		if trials[i].Leaker != l {
			t.Fatalf("trial %d out of order: leaker %d, want %d", i, trials[i].Leaker, l)
		}
	}
}

// AverageResilience must stay deterministic in its seed now that origins
// run in parallel.
func TestAverageResilienceDeterministic(t *testing.T) {
	in := genInternet(t, 0.01425)
	a1, u1, err := AverageResilience(in.Graph, 4, 5, 99, nil)
	if err != nil {
		t.Fatal(err)
	}
	a2, u2, err := AverageResilience(in.Graph, 4, 5, 99, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 || u1 != u2 {
		t.Fatalf("AverageResilience not deterministic: (%v,%v) vs (%v,%v)", a1, u1, a2, u2)
	}
}

// sweepRetainedBytes builds cfg's sweep on g and returns the heap it
// retains: HeapAlloc after two collections around the build (the second
// empties the pools' victim caches, so the simulator the pre-pass borrowed
// is not counted). The graph's relayer index and cfg itself are built
// before the first reading.
func sweepRetainedBytes(t *testing.T, g *astopo.Graph, cfg Config) int64 {
	t.Helper()
	g.RelayerIndex()
	g.Stubs()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	sw, err := NewLeakSweep(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(sw)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// checkSweepsRetain holds the sweeps a daemon caches for Google — a plain
// leak, every neighbor peer-locking, a hierarchy announcement policy, and
// a hijack — each to budget bytes.
func checkSweepsRetain(t *testing.T, in *topogen.Internet, budget int64) {
	t.Helper()
	g, origin := in.Graph, in.Clouds["Google"]
	for _, cfg := range []Config{
		{Origin: origin},
		ScenarioConfig(g, origin, in.Tier1, in.Tier2, AnnounceAllLockAll),
		ScenarioConfig(g, origin, in.Tier1, in.Tier2, AnnounceHierarchy),
		{Origin: origin, Hijack: true},
	} {
		got := sweepRetainedBytes(t, g, cfg)
		t.Logf("locking %v, policy %v, hijack %v: %d B (%.3f MiB), budget %d B",
			cfg.Locking != nil, cfg.Policy != nil, cfg.Hijack, got, float64(got)/(1<<20), budget)
		if got > budget {
			t.Errorf("locking %v, policy %v, hijack %v: the sweep retains %d B, budget %d B",
				cfg.Locking != nil, cfg.Policy != nil, cfg.Hijack, got, budget)
		}
	}
}

// A sweep keeps rows for the origin and the relayers (the ASes with
// customers), never one per AS: at the default scale (3,465 ASes, 210
// relayers) a sweep retains at most 64 bytes per row, 13,504 B. Measured:
// about 6.1 KB plain, 8.1 KB locking, 6.3 KB policy and 0.3 KB hijack —
// the largest 1.67x under the budget.
func TestLeakSweepRetainsRelayerRows(t *testing.T) {
	in := genInternet(t, 0.04987)
	checkSweepsRetain(t, in, 64*int64(len(in.Graph.Relayers())+1))
}

// At scale 1.0 a sweep retains at most 0.5 MiB; a sweep that owned its
// simulator and O(V) arrays retained 4.42 MiB. Measured: 0.125 MiB at
// most (peer locking).
func TestLeakSweepRetainsRelayerRowsFullScale(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("full-scale topology: skipped with -short and under -race")
	}
	checkSweepsRetain(t, genInternet(t, 1.0), 1<<19)
}
