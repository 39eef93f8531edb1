package core

import (
	"context"
	"math/rand"
	"testing"

	"flatnet/internal/astopo"
	"flatnet/internal/bgpsim"
)

// mutateDataset derives a "next" world from prev by removing and adding
// random links and attaching a few brand-new ASes, returning the rebuilt
// dataset plus the exact delta connecting the two. The mutation keeps the
// tier sets fixed (the timeline invariant EvolveCounts exploits).
func mutateDataset(rng *rand.Rand, prev Dataset, removals, additions, newASes int) (Dataset, EvolveDelta) {
	type pair = [2]astopo.ASN
	key := func(l astopo.Link) pair {
		a, b := l.A, l.B
		if a > b {
			a, b = b, a
		}
		return pair{a, b}
	}
	links := prev.Graph.Links()
	var d EvolveDelta
	drop := make(map[int]bool)
	for len(drop) < removals && len(drop) < len(links)/2 {
		drop[rng.Intn(len(links))] = true
	}
	kept := make(map[pair]bool, len(links))
	var next []astopo.Link
	for i, l := range links {
		if drop[i] {
			d.RemovedLinks = append(d.RemovedLinks, l)
			continue
		}
		kept[key(l)] = true
		next = append(next, l)
	}
	n := prev.Graph.NumASes()
	maxASN := astopo.ASN(0)
	for _, a := range prev.Graph.ASes() {
		if a > maxASN {
			maxASN = a
		}
	}
	add := func(l astopo.Link) bool {
		if l.A == l.B || kept[key(l)] {
			return false
		}
		kept[key(l)] = true
		next = append(next, l)
		d.AddedLinks = append(d.AddedLinks, l)
		return true
	}
	for tries := 0; tries < additions*10 && len(d.AddedLinks) < additions; tries++ {
		a := prev.Graph.ASNAt(rng.Intn(n))
		b := prev.Graph.ASNAt(rng.Intn(n))
		rel := astopo.P2P
		if rng.Intn(3) == 0 {
			rel = astopo.P2C
		}
		add(astopo.Link{A: a, B: b, Rel: rel})
	}
	for j := 0; j < newASes; j++ {
		na := maxASN + 1 + astopo.ASN(j)
		d.NewASes = append(d.NewASes, na)
		add(astopo.Link{A: prev.Graph.ASNAt(rng.Intn(n)), B: na, Rel: astopo.P2C})
		if rng.Intn(2) == 0 {
			add(astopo.Link{A: na, B: prev.Graph.ASNAt(rng.Intn(n)), Rel: astopo.P2P})
		}
	}
	g := astopo.NewGraph(n+newASes, len(next))
	for _, l := range next {
		g.MustAddLink(l.A, l.B, l.Rel)
	}
	return Dataset{Graph: g, Tier1: prev.Tier1, Tier2: prev.Tier2}, d
}

// TestEvolveCountsMatchesFullSweep is the incremental engine's golden
// equivalence suite: over randomized tiered topologies and randomized
// add/remove/new-AS deltas, EvolveCounts must reproduce a fresh full sweep
// of the next world exactly — every origin, every Kind, whether it carried
// counts, scouted, or fell back. It also asserts the incremental path is
// actually exercised (some trials must carry counts without a full sweep).
func TestEvolveCountsMatchesFullSweep(t *testing.T) {
	ctx := context.Background()
	carried := 0
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		n := 12 + rng.Intn(30)
		if seed%12 == 0 {
			n = 140 + rng.Intn(60) // multi-block: dirty recompute crosses 64-lane words
		}
		prev := randomTieredDataset(rng, n)
		nxt, delta := mutateDataset(rng, prev, rng.Intn(3), 1+rng.Intn(3), rng.Intn(3))
		prevM, nextM := New(prev), New(nxt)
		for _, kind := range allKinds {
			prevCounts, err := prevM.ReachabilityRangeCtx(ctx, kind, 0, n, 0)
			if err != nil {
				t.Fatalf("seed %d kind %v: prev sweep: %v", seed, kind, err)
			}
			got, stats, err := EvolveCounts(ctx, prevM, nextM, kind, prevCounts, delta)
			if err != nil {
				t.Fatalf("seed %d kind %v: EvolveCounts: %v", seed, kind, err)
			}
			want, err := nextM.ReachabilityRangeCtx(ctx, kind, 0, nxt.Graph.NumASes(), 0)
			if err != nil {
				t.Fatalf("seed %d kind %v: fresh sweep: %v", seed, kind, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d kind %v: origin %d (AS%d): evolved %d != fresh %d (stats %+v, delta %+v)",
						seed, kind, i, nxt.Graph.ASNAt(i), got[i], want[i], stats, delta)
				}
			}
			if kind == Full || kind == ProviderFree {
				if !stats.FullSweep {
					t.Fatalf("seed %d kind %v: expected full-sweep fallback", seed, kind)
				}
			}
			if !stats.FullSweep {
				if stats.Dirty+stats.Carried != stats.Origins {
					t.Fatalf("seed %d kind %v: stats don't partition: %+v", seed, kind, stats)
				}
				carried += stats.Carried
			}
		}
	}
	if carried == 0 {
		t.Fatal("incremental path never carried a count — the suite only tested the fallback")
	}
}

// TestEvolveCountsSingleLink pins the cheap path: one added peer link
// between two leaf ASes under HierarchyFree must bound by two cone walks
// and carry the overwhelming majority of origins. Its dirty set is
// narrower than one 64-lane word, so evolved == fresh is asserted through
// the partial-block recount.
func TestEvolveCountsSingleLink(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(42))
	prev := randomTieredDataset(rng, 180)
	n := prev.Graph.NumASes()
	// Find two unlinked non-tier leaves.
	var la, lb astopo.ASN
	for tries := 0; ; tries++ {
		a := prev.Graph.ASNAt(rng.Intn(n))
		b := prev.Graph.ASNAt(rng.Intn(n))
		if a == b || prev.Tier1.Has(a) || prev.Tier1.Has(b) || prev.Tier2.Has(a) || prev.Tier2.Has(b) {
			continue
		}
		if _, ok := prev.Graph.HasLink(a, b); !ok {
			la, lb = a, b
			break
		}
	}
	link := astopo.Link{A: la, B: lb, Rel: astopo.P2P}
	links := append(append([]astopo.Link(nil), prev.Graph.Links()...), link)
	g := astopo.NewGraph(n, len(links))
	for _, l := range links {
		g.MustAddLink(l.A, l.B, l.Rel)
	}
	nxt := Dataset{Graph: g, Tier1: prev.Tier1, Tier2: prev.Tier2}
	prevM, nextM := New(prev), New(nxt)
	prevCounts, err := prevM.ReachabilityRangeCtx(ctx, HierarchyFree, 0, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := EvolveCounts(ctx, prevM, nextM, HierarchyFree, prevCounts, EvolveDelta{AddedLinks: []astopo.Link{link}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FullSweep {
		t.Fatalf("single leaf link forced a full sweep: %+v", stats)
	}
	if stats.Scouts != 0 || stats.Cones != 2 {
		t.Fatalf("peer link should bound via 2 cone walks, no scouts: %+v", stats)
	}
	if stats.Carried == 0 {
		t.Fatalf("no counts carried: %+v", stats)
	}
	if stats.Dirty < 1 || stats.Dirty >= bgpsim.BatchLanes {
		t.Fatalf("dirty set of %d origins is not a partial block: %+v", stats.Dirty, stats)
	}
	want, err := nextM.ReachabilityRangeCtx(ctx, HierarchyFree, 0, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("origin AS%d: evolved %d != fresh %d", nxt.Graph.ASNAt(i), got[i], want[i])
		}
	}
}

func TestEvolveCountsFailsClosed(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	prev := randomTieredDataset(rng, 30)
	nxt, delta := mutateDataset(rng, prev, 1, 2, 1)
	prevM, nextM := New(prev), New(nxt)
	n := prev.Graph.NumASes()
	prevCounts, err := prevM.ReachabilityRangeCtx(ctx, HierarchyFree, 0, n, 0)
	if err != nil {
		t.Fatal(err)
	}

	if _, _, err := EvolveCounts(ctx, prevM, nextM, HierarchyFree, prevCounts[:n-1], delta); err == nil {
		t.Error("short prevCounts should fail")
	}
	bad := delta
	bad.NewASes = append([]astopo.ASN{9999999}, delta.NewASes...)
	if _, _, err := EvolveCounts(ctx, prevM, nextM, HierarchyFree, prevCounts, bad); err == nil {
		t.Error("unknown new AS should fail")
	}
	bad = delta
	bad.RemovedLinks = append([]astopo.Link{{A: 9999998, B: 9999999, Rel: astopo.P2P}}, delta.RemovedLinks...)
	if _, _, err := EvolveCounts(ctx, prevM, nextM, HierarchyFree, prevCounts, bad); err == nil {
		t.Error("removed link outside prev world should fail")
	}
	bad = delta
	bad.AddedLinks = append([]astopo.Link{{A: 9999998, B: 9999999, Rel: astopo.P2P}}, delta.AddedLinks...)
	if _, _, err := EvolveCounts(ctx, prevM, nextM, HierarchyFree, prevCounts, bad); err == nil {
		t.Error("added link outside next world should fail")
	}
	// Tier-set change: same graphs, different Tier2 → full sweep, exact.
	t2 := make(astopo.ASSet)
	for a := range nxt.Tier2 {
		t2.Add(a)
	}
	t2.Add(nxt.Graph.ASNAt(n / 2))
	altM := New(Dataset{Graph: nxt.Graph, Tier1: nxt.Tier1, Tier2: t2})
	got, stats, err := EvolveCounts(ctx, prevM, altM, HierarchyFree, prevCounts, delta)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.FullSweep {
		t.Error("tier-set change must force the full-sweep fallback")
	}
	want, err := altM.ReachabilityRangeCtx(ctx, HierarchyFree, 0, nxt.Graph.NumASes(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fallback mismatch at %d: %d != %d", i, got[i], want[i])
		}
	}
}
