package core

import (
	"context"
	"math/rand"
	"testing"

	"flatnet/internal/astopo"
	"flatnet/internal/topogen"
)

// uncollapsed is the reference the classed sweep is compared against: the
// batch engine over [lo, hi) with one lane per origin and no class index.
func uncollapsed(t *testing.T, m *Metrics, kind Kind, lo, hi int) []int {
	t.Helper()
	out := make([]int, hi-lo)
	if err := m.batchCountsCtx(context.Background(), kind, denseRange{lo, hi}, out, 0); err != nil {
		t.Fatalf("kind %v range [%d, %d): uncollapsed: %v", kind, lo, hi, err)
	}
	return out
}

// TestClassedSweepMatchesUncollapsed is the tentpole golden suite: the
// class-collapsed all-AS sweep must be byte-identical to the uncollapsed
// batch sweep (batchCountsCtx, called directly) for every Kind, every
// origin, full ranges and subranges, over the random tiered corpus — and
// the collapse must actually fire on at least some of the corpus.
func TestClassedSweepMatchesUncollapsed(t *testing.T) {
	ctx := context.Background()
	collapsed := 0
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 12 + rng.Intn(40)
		if seed%10 == 0 {
			n = 150 + rng.Intn(50) // multi-block: spans several 64-lane words
		}
		ds := randomTieredDataset(rng, n)
		m := New(ds)
		if c, _ := m.ClassStats(); c > 0 && c < n {
			collapsed++
		}
		lo := rng.Intn(n)
		hi := lo + rng.Intn(n-lo)
		for _, kind := range allKinds {
			for _, r := range [][2]int{{0, n}, {lo, hi}} {
				got, err := m.ReachabilityRangeCtx(ctx, kind, r[0], r[1], 0)
				if err != nil {
					t.Fatalf("seed %d kind %v range %v: classed: %v", seed, kind, r, err)
				}
				want := uncollapsed(t, m, kind, r[0], r[1])
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d kind %v origin %d (AS%d): classed %d != uncollapsed %d",
							seed, kind, r[0]+i, ds.Graph.ASNAt(r[0]+i), got[i], want[i])
					}
				}
			}
		}
	}
	if collapsed == 0 {
		t.Fatal("no topology in the corpus collapsed — the suite never exercised the classed path")
	}
}

// The many-origin query path dedups classmates; the answers must match
// per-origin queries exactly, duplicates and all.
func TestReachabilityManyClassDedupMatches(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(23))
	ds := randomTieredDataset(rng, 140)
	m := New(ds)
	all := ds.Graph.ASes()
	origins := make([]astopo.ASN, 0, len(all)+30)
	origins = append(origins, all...)
	for k := 0; k < 30; k++ { // duplicates to force the dedup path
		origins = append(origins, all[rng.Intn(len(all))])
	}
	for _, kind := range allKinds {
		got, err := m.ReachabilityManyN(ctx, origins, kind, 0)
		if err != nil {
			t.Fatalf("kind %v: %v", kind, err)
		}
		for i, o := range origins {
			want, err := m.Reachability(o, kind)
			if err != nil {
				t.Fatal(err)
			}
			if got[i] != want {
				t.Fatalf("kind %v origin AS%d: many %d != single %d", kind, o, got[i], want)
			}
		}
	}
}

// EvolveCounts must carry the class index across a delta when tier sets
// hold, and the carried index must be indistinguishable from a rebuild.
func TestEvolveCarriesClassIndex(t *testing.T) {
	ctx := context.Background()
	carried := 0
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(700 + seed))
		prev := randomTieredDataset(rng, 40+rng.Intn(120))
		nxt, delta := mutateDataset(rng, prev, rng.Intn(3), 1+rng.Intn(3), rng.Intn(3))
		prevM, nextM := New(prev), New(nxt)
		n := prev.Graph.NumASes()
		prevCounts, err := prevM.ReachabilityRangeCtx(ctx, HierarchyFree, 0, n, 0)
		if err != nil {
			t.Fatal(err)
		}
		if prevM.classesIfBuilt() == nil {
			t.Fatalf("seed %d: classed sweep did not build the index", seed)
		}
		_, stats, err := EvolveCounts(ctx, prevM, nextM, HierarchyFree, prevCounts, delta)
		if err != nil {
			t.Fatal(err)
		}
		if !stats.ClassesEvolved {
			t.Fatalf("seed %d: class index not carried (stats %+v)", seed, stats)
		}
		carried++
		got := nextM.classesIfBuilt()
		if got == nil {
			t.Fatalf("seed %d: next metrics has no index after carry", seed)
		}
		want := New(nxt).SweepClasses()
		if got.NumClasses() != want.NumClasses() {
			t.Fatalf("seed %d: evolved %d classes, rebuild %d", seed, got.NumClasses(), want.NumClasses())
		}
		for i := 0; i < nxt.Graph.NumASes(); i++ {
			if got.ClassOf(i) != want.ClassOf(i) {
				t.Fatalf("seed %d AS index %d: evolved class %d != rebuilt %d", seed, i, got.ClassOf(i), want.ClassOf(i))
			}
		}
		for c := 0; c < want.NumClasses(); c++ {
			if got.Rep(c) != want.Rep(c) || got.Size(c) != want.Size(c) {
				t.Fatalf("seed %d class %d: rep/size mismatch", seed, c)
			}
		}
	}
	if carried == 0 {
		t.Fatal("no trial carried the class index")
	}
}

// A preset world through the classed stack: the scaled-down Internet-2020
// topology must sweep identically with and without collapse, anchoring the
// corpus result on the generator the benchmarks use.
func TestClassedSweepMatchesUncollapsedPreset(t *testing.T) {
	ctx := context.Background()
	in, err := topogen.Generate(topogen.Internet2020(0.02))
	if err != nil {
		t.Fatal(err)
	}
	ds := Dataset{Graph: in.Graph, Tier1: in.Tier1, Tier2: in.Tier2}
	n := ds.Graph.NumASes()
	m := New(ds)
	for _, kind := range allKinds {
		got, err := m.ReachabilityRangeCtx(ctx, kind, 0, n, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := uncollapsed(t, m, kind, 0, n)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("kind %v origin %d (AS%d): classed %d != uncollapsed %d",
					kind, i, ds.Graph.ASNAt(i), got[i], want[i])
			}
		}
	}
	if c, ratio := m.ClassStats(); c == 0 || ratio <= 1 {
		t.Errorf("preset world did not collapse: classes=%d ratio=%v", c, ratio)
	}
}
