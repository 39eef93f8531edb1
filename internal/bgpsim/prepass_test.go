package bgpsim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"flatnet/internal/astopo"
)

// prepassConfigs lists the leak-free base configs a sweep's rows are checked
// under: every §8.2 scenario with ties kept and broken, and one config
// with a random announcement policy, exclusion mask and peer-locking mask
// together, ties kept and broken.
func prepassConfigs(g *astopo.Graph, origin astopo.ASN, tier1, tier2 astopo.ASSet, rng *rand.Rand) []Config {
	var cfgs []Config
	for _, scen := range LeakScenarios() {
		cfg := ScenarioConfig(g, origin, tier1, tier2, scen)
		cfgs = append(cfgs, cfg)
		cfg.BreakTies = true
		cfgs = append(cfgs, cfg)
	}
	n := g.NumASes()
	oi, _ := g.Index(origin)
	var allowed []astopo.ASN
	for _, rows := range [][]int32{g.ProvidersOf(oi), g.PeersOf(oi), g.CustomersOf(oi)} {
		for _, p := range rows {
			if rng.Intn(4) > 0 {
				allowed = append(allowed, g.ASNAt(int(p)))
			}
		}
	}
	mixed := Config{Origin: origin, Policy: NewPolicy(g, allowed), Exclude: make([]bool, n), Locking: make([]bool, n)}
	for i := 0; i < n; i++ {
		mixed.Exclude[i] = i != oi && rng.Intn(6) == 0
		mixed.Locking[i] = i != oi && rng.Intn(4) == 0
	}
	cfgs = append(cfgs, mixed)
	mixed.BreakTies = true
	return append(cfgs, mixed)
}

// prepassTally counts what a row check covered: stub rows with a route,
// stub rows with tied next hops, and tied stub rows whose provider-route
// next hops settled out of index order (so only the settle order gives
// propagate's push order).
type prepassTally struct{ stubs, tied, settleOrder int }

// checkPrepassRows compares every AS's row in cfg's sweep — read off the
// relay-only snapshot, or derived for a stub — with the same AS in a
// tracked run that settles every AS: class, length, next hops in order, and
// the path count bit for bit.
func checkPrepassRows(t *testing.T, g *astopo.Graph, cfg Config, label string, tally *prepassTally) {
	t.Helper()
	sw, err := NewLeakSweep(g, cfg)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	full, _, counts := fullPrepass(t, g, cfg)
	csr := full.csr()
	var w loopWalk
	for v := int32(0); v < int32(g.NumASes()); v++ {
		r := sw.row(v, &w)
		wantHops := csr.at(v)
		if r.class != full.class[v] || r.dist != full.dist[v] || !slices.Equal(r.hops, wantHops) ||
			r.class != ClassNone && math.Float64bits(r.paths) != math.Float64bits(counts[v]) {
			t.Fatalf("%s: AS%d (stub %v) row {%v %d %v %v}, full run {%v %d %v %v}", label, g.ASNAt(int(v)),
				!g.HasCustomers(int(v)), r.class, r.dist, r.hops, r.paths, full.class[v], full.dist[v], wantHops, counts[v])
		}
		if v == sw.origin || g.HasCustomers(int(v)) || r.class == ClassNone {
			continue
		}
		tally.stubs++
		if len(r.hops) > 1 {
			tally.tied++
			if r.class == ClassProvider && !slices.IsSorted(r.hops) {
				tally.settleOrder++
			}
		}
	}
}

// checkStubTrials replays stub leakers under cfg, and under its hijack, and
// compares each trial — the sweep's scalar Trial, and the batch engine's
// (or, for BreakTies, TrialsN's scalar arm) — with the from-scratch
// refLeakRun reduced the same way.
func checkStubTrials(t *testing.T, g *astopo.Graph, cfg Config, leakers []astopo.ASN, weights []float64, label string) {
	t.Helper()
	n := g.NumASes()
	ref := New(g)
	for _, hijack := range []bool{false, true} {
		cfg.Hijack = hijack
		at := fmt.Sprintf("%s hijack=%v", label, hijack)
		sw, err := NewLeakSweep(g, cfg)
		if err != nil {
			t.Fatalf("%s: %v", at, err)
		}
		got, err := sw.TrialsN(context.Background(), leakers, weights, 1)
		if err != nil {
			t.Fatalf("%s: %v", at, err)
		}
		for i, l := range leakers {
			res, err := refLeakRun(ref, cfg, l)
			if err != nil {
				t.Fatalf("%s leaker AS%d: %v", at, l, err)
			}
			want := LeakTrial{Leaker: l, DetouredFrac: float64(detoured(res)) / float64(n-2)}
			if weights != nil {
				want.DetouredUserFrac = detouredWeight(res, weights)
			}
			scalar, err := sw.Trial(l, weights)
			if err != nil {
				t.Fatalf("%s leaker AS%d: %v", at, l, err)
			}
			if got[i] != want || scalar != want {
				t.Fatalf("%s stub leaker AS%d: Trials %+v, Trial %+v, reference %+v", at, l, got[i], scalar, want)
			}
		}
	}
}

// stubsOf returns the stubs of g other than origin that cfg does not
// exclude, in index order.
func stubsOf(g *astopo.Graph, cfg Config) []astopo.ASN {
	var out []astopo.ASN
	for v := 0; v < g.NumASes(); v++ {
		if a := g.ASNAt(v); a != cfg.Origin && !g.HasCustomers(v) && (cfg.Exclude == nil || !cfg.Exclude[v]) {
			out = append(out, a)
		}
	}
	return out
}

// The relay-only pre-pass settles only the origin and the ASes with
// customers, and LeakSweep.row derives every stub's row from its
// neighbors. Every AS's row must equal the tracked run that settles every
// AS — under every scenario, an announcement policy, an exclusion mask and
// peer locking, ties kept and broken, with origins that are stubs on half
// the seeds — and every stub leaker's trial must equal refLeakRun's.
func TestPrepassRowsMatchFullRun(t *testing.T) {
	var tally prepassTally
	stubOrigins := 0
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
		var weights []float64
		if rng.Intn(2) == 0 {
			weights = make([]float64, n)
			for i := range weights {
				weights[i] = rng.Float64()
			}
		}
		for ci, cfg := range prepassConfigs(g, origin, tier1, tier2, rng) {
			label := fmt.Sprintf("seed %d config %d (ties broken %v)", seed, ci, cfg.BreakTies)
			checkPrepassRows(t, g, cfg, label, &tally)
			checkStubTrials(t, g, cfg, stubsOf(g, cfg), weights, label)
		}
	}
	if stubOrigins < 40 || tally.stubs < 1000 || tally.tied < 100 || tally.settleOrder < 10 {
		t.Fatalf("corpus covers %d stub origins, %d routed stub rows, %d tied, %d in settle order only",
			stubOrigins, tally.stubs, tally.tied, tally.settleOrder)
	}
	t.Logf("%d stub origins, %d routed stub rows, %d tied, %d in settle order only", stubOrigins, tally.stubs, tally.tied, tally.settleOrder)
}

// A stub whose one neighbor is its provider holds every route through that
// provider, whose loop detection drops the one leaked copy: by the
// from-scratch reference, its leak detours nobody under every scenario,
// and the engines give it no lane.
func TestSingleHomedStubLeaksDetourNobody(t *testing.T) {
	checked := 0
	for seed := int64(0); seed < 110; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomTopology(rng)
		g.Freeze()
		all := g.ASes()
		origin := all[rng.Intn(len(all))]
		tier1, tier2 := randomTiers(g, rng)
		ref := New(g)
		for _, scen := range LeakScenarios() {
			cfg := ScenarioConfig(g, origin, tier1, tier2, scen)
			sw, err := NewLeakSweep(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for v, l := range all {
				if l == origin || g.HasCustomers(v) || len(g.PeersOf(v)) != 0 || len(g.ProvidersOf(v)) != 1 {
					continue
				}
				res, err := refLeakRun(ref, cfg, l)
				if err != nil {
					t.Fatal(err)
				}
				if d := detoured(res); d != 0 {
					t.Fatalf("seed %d %v: single-homed stub AS%d's leak detours %d ASes", seed, scen, l, d)
				}
				if live, err := sw.liveLeakers([]astopo.ASN{l}, make([]LeakTrial, 1), new(loopWalk), nil); err != nil || len(live) != 0 {
					t.Fatalf("seed %d %v: single-homed stub AS%d gets a lane (%v, %v)", seed, scen, l, live, err)
				}
				checked++
			}
		}
	}
	if checked < 200 {
		t.Fatalf("corpus has %d single-homed peerless stub leakers", checked)
	}
}

// Scale 1.0 (CI's fullscale job): every AS's row under Google's five
// scenarios, announce-to-all with ties broken, and a stub origin's
// announce-to-all equals the full tracked run's, and 16 sampled stub
// leakers per config trial as refLeakRun does, leaks and hijacks,
// user-weighted.
func TestPrepassRowsMatchFullRunFullScale(t *testing.T) {
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
	var cfgs []Config
	for _, scen := range LeakScenarios() {
		cfgs = append(cfgs, ScenarioConfig(g, google, in.Tier1, in.Tier2, scen))
	}
	cfgs = append(cfgs, Config{Origin: google, BreakTies: true})
	var stubs []astopo.ASN
	for _, l := range SampleLeakers(g, google, 4000, 7) {
		if i, _ := g.Index(l); !g.HasCustomers(i) {
			stubs = append(stubs, l)
		}
	}
	cfgs = append(cfgs, Config{Origin: stubs[0]})
	var tally prepassTally
	for _, cfg := range cfgs {
		label := fmt.Sprintf("origin AS%d (locking %v, policy %v, ties broken %v)", cfg.Origin, cfg.Locking != nil, cfg.Policy != nil, cfg.BreakTies)
		checkPrepassRows(t, g, cfg, label, &tally)
		leakers := slices.DeleteFunc(slices.Clone(stubs), func(l astopo.ASN) bool { return l == cfg.Origin })[:16]
		checkStubTrials(t, g, cfg, leakers, weights, label)
	}
	if tally.tied == 0 || tally.settleOrder == 0 {
		t.Fatalf("%d tied stub rows, %d in settle order only", tally.tied, tally.settleOrder)
	}
	t.Logf("%d routed stub rows, %d tied, %d in settle order only", tally.stubs, tally.tied, tally.settleOrder)
}
