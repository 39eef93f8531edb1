package bgpsim

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"flatnet/internal/astopo"
	"flatnet/internal/topogen"
)

func genInternet(t testing.TB, scale float64) *topogen.Internet {
	t.Helper()
	in, err := topogen.Generate(topogen.Internet2020(scale))
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestScenarioConfigLocking(t *testing.T) {
	in := genInternet(t, 0.02138)
	g := in.Graph
	google := in.Clouds["Google"]

	lockT1 := ScenarioConfig(g, google, in.Tier1, in.Tier2, AnnounceAllLockT1)
	lockT1T2 := ScenarioConfig(g, google, in.Tier1, in.Tier2, AnnounceAllLockT1T2)
	lockAll := ScenarioConfig(g, google, in.Tier1, in.Tier2, AnnounceAllLockAll)
	count := func(mask []bool) int {
		n := 0
		for _, b := range mask {
			if b {
				n++
			}
		}
		return n
	}
	n1, n12, nAll := count(lockT1.Locking), count(lockT1T2.Locking), count(lockAll.Locking)
	if !(n1 > 0 && n1 <= n12 && n12 <= nAll) {
		t.Errorf("locking sizes: T1=%d T1T2=%d all=%d, want increasing", n1, n12, nAll)
	}
	if nAll != g.Degree(google) {
		t.Errorf("global lock covers %d, want all %d neighbors", nAll, g.Degree(google))
	}
	// Locked ASes must be neighbors of the origin.
	for i, b := range lockT1.Locking {
		if !b {
			continue
		}
		a := g.ASNAt(i)
		if _, ok := g.HasLink(google, a); !ok {
			t.Errorf("locked AS%d is not a Google neighbor", a)
		}
		if !in.Tier1.Has(a) {
			t.Errorf("locked AS%d is not a Tier-1", a)
		}
	}
}

func TestScenarioConfigHierarchyPolicy(t *testing.T) {
	in := genInternet(t, 0.02138)
	g := in.Graph
	google := in.Clouds["Google"]
	cfg := ScenarioConfig(g, google, in.Tier1, in.Tier2, AnnounceHierarchy)
	if cfg.Policy == nil {
		t.Fatal("hierarchy scenario has no policy")
	}
	sim := New(g)
	rAll, err := sim.Run(ScenarioConfig(g, google, in.Tier1, in.Tier2, AnnounceAll))
	if err != nil {
		t.Fatal(err)
	}
	rAll = rAll.Clone()
	rHier, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rHier.Reachable() > rAll.Reachable() {
		t.Errorf("hierarchy-only announcement reaches more (%d) than announce-to-all (%d)",
			rHier.Reachable(), rAll.Reachable())
	}
}

// Peer locking must monotonically reduce detours, and the hierarchy-only
// announcement must be worse (more detours) than announce-to-all for a
// richly peered origin — §8.2's central findings, erratum semantics.
func TestLeakScenarioOrdering(t *testing.T) {
	in := genInternet(t, 0.02138)
	g := in.Graph
	google := in.Clouds["Google"]
	leakers := SampleLeakers(g, google, 60, 42)

	mean := func(scen LeakScenario) float64 {
		cfg := ScenarioConfig(g, google, in.Tier1, in.Tier2, scen)
		jobs, err := RunLeakJobs(context.Background(), []LeakJob{{Graph: g, Config: cfg, Leakers: leakers}})
		if err != nil {
			t.Fatal(err)
		}
		trials := jobs[0]
		var s float64
		for _, tr := range trials {
			s += tr.DetouredFrac
		}
		return s / float64(len(trials))
	}
	all := mean(AnnounceAll)
	lockT1 := mean(AnnounceAllLockT1)
	lockT1T2 := mean(AnnounceAllLockT1T2)
	lockAll := mean(AnnounceAllLockAll)
	hier := mean(AnnounceHierarchy)
	t.Logf("mean detoured: all=%.4f lockT1=%.4f lockT1T2=%.4f lockAll=%.4f hierarchy=%.4f",
		all, lockT1, lockT1T2, lockAll, hier)
	if !(lockAll <= lockT1T2 && lockT1T2 <= lockT1 && lockT1 <= all) {
		t.Errorf("peer locking did not monotonically reduce detours")
	}
	if lockAll > 0.01 {
		t.Errorf("global peer locking leaves %.4f detoured, want ~0 (virtually immune)", lockAll)
	}
	if hier <= all {
		t.Errorf("announce-to-hierarchy (%.4f) should be less resilient than announce-to-all (%.4f)", hier, all)
	}
}

func TestSampleLeakersProperties(t *testing.T) {
	in := genInternet(t, 0.01425)
	g := in.Graph
	origin := in.Clouds["Google"]
	ls := SampleLeakers(g, origin, 50, 7)
	if len(ls) != 50 {
		t.Fatalf("got %d leakers", len(ls))
	}
	seen := map[astopo.ASN]bool{}
	for _, a := range ls {
		if a == origin {
			t.Error("origin sampled as leaker")
		}
		if seen[a] {
			t.Errorf("duplicate leaker AS%d", a)
		}
		seen[a] = true
	}
	ls2 := SampleLeakers(g, origin, 50, 7)
	for i := range ls {
		if ls[i] != ls2[i] {
			t.Fatal("sampling not deterministic")
		}
	}
}

// A sample of no leakers, or a negative count, draws none: a zero count
// once drew every AS, a negative one panicked.
func TestSampleLeakersNonPositive(t *testing.T) {
	in := genInternet(t, 0.01425)
	origin := in.Clouds["Google"]
	for _, n := range []int{0, -5} {
		if ls := SampleLeakers(in.Graph, origin, n, 7); len(ls) != 0 {
			t.Errorf("SampleLeakers(n=%d) drew %d leakers, want none", n, len(ls))
		}
	}
}

// permPrefix keeps rand.Perm's draws and its prefix: for every size, every
// prefix length (past the end and non-positive ones too) and many seeds,
// it must equal that prefix of Perm, and leave the RNG where Perm does.
func TestPermPrefixMatchesPerm(t *testing.T) {
	for size := 0; size <= 70; size++ {
		for _, k := range []int{-3, 0, 1, 2, size / 3, size - 2, size - 1, size, size + 1, size + 5} {
			for seed := int64(0); seed < 12; seed++ {
				want := rand.New(rand.NewSource(seed))
				got := rand.New(rand.NewSource(seed))
				perm := want.Perm(size)
				prefix := permPrefix(got, size, k)
				if wk := max(0, min(k, size)); !slices.Equal(prefix, perm[:wk]) {
					t.Fatalf("size %d k %d seed %d: prefix %v, Perm %v", size, k, seed, prefix, perm[:wk])
				}
				if a, b := want.Int63(), got.Int63(); a != b {
					t.Fatalf("size %d k %d seed %d: RNG state differs after the draw", size, k, seed)
				}
			}
		}
	}
}

// SampleLeakers draws the prefix of the whole permutation it once drew,
// skipping the origin: over origins at either end and inside the index
// range, samples from none to more than the graph holds, and many seeds.
func TestSampleLeakersMatchesPermPrefix(t *testing.T) {
	g := randomTopology(rand.New(rand.NewSource(3)))
	g.Freeze()
	all := g.ASes()
	size := len(all)
	for _, oi := range []int{0, size / 2, size - 1} {
		origin := all[oi]
		for _, n := range []int{-1, 0, 1, 7, size - 2, size - 1, size, size + 3} {
			for seed := int64(0); seed < 20; seed++ {
				var want []astopo.ASN
				if n > 0 {
					for _, i := range rand.New(rand.NewSource(seed)).Perm(size) {
						if all[i] != origin && len(want) < min(n, size-1) {
							want = append(want, all[i])
						}
					}
				}
				if got := SampleLeakers(g, origin, n, seed); !slices.Equal(got, want) {
					t.Fatalf("origin AS%d n %d seed %d: %v, want %v", origin, n, seed, got, want)
				}
			}
		}
	}
}

func TestSummarizeDetours(t *testing.T) {
	xs := []float64{0.5, 0.1, 0.9, 0.3, 0.7}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	got := SummarizeDetours(xs)
	// p95 is element int(0.95*4) = 3 of the sorted sample.
	if want := (DetourStats{Mean: sum / 5, P95: 0.7, Worst: 0.9}); got != want {
		t.Errorf("SummarizeDetours(%v) = %+v, want %+v", xs, got, want)
	}
	if xs[0] != 0.5 {
		t.Error("SummarizeDetours sorted its input in place")
	}
	var twenty []float64
	for i := 20; i > 0; i-- {
		twenty = append(twenty, float64(i)/20)
	}
	// int(0.95*19) = 18: the second largest of twenty.
	if got := SummarizeDetours(twenty).P95; got != 19.0/20 {
		t.Errorf("p95 of 1/20..20/20 = %v, want 0.95", got)
	}
	if got := SummarizeDetours(nil); got != (DetourStats{}) {
		t.Errorf("SummarizeDetours(nil) = %+v, want zeros", got)
	}
	trials := []LeakTrial{{DetouredFrac: 0.2, DetouredUserFrac: 0.4}, {DetouredFrac: 0.6, DetouredUserFrac: 0.8}}
	if as, users := DetourFracs(trials, false), DetourFracs(trials, true); as[1] != 0.6 || users[1] != 0.8 {
		t.Errorf("DetourFracs = %v (ASes), %v (users)", as, users)
	}
}

func TestCDF(t *testing.T) {
	trials := []LeakTrial{
		{DetouredFrac: 0.1}, {DetouredFrac: 0.2}, {DetouredFrac: 0.2}, {DetouredFrac: 0.9},
	}
	xs := []float64{0, 0.1, 0.2, 0.5, 1}
	got := CDF(trials, xs, false)
	want := []float64{0, 0.25, 0.75, 0.75, 1}
	for i := range xs {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("CDF at %v = %v, want %v", xs[i], got[i], want[i])
		}
	}
}

func TestAverageResilience(t *testing.T) {
	in := genInternet(t, 0.01425)
	frac, _, err := AverageResilience(in.Graph, 4, 5, 99, nil)
	if err != nil {
		t.Fatal(err)
	}
	if frac <= 0 || frac >= 1 {
		t.Errorf("average resilience = %v, want in (0,1)", frac)
	}
}
