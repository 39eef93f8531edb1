package core

import (
	"context"
	"math/rand"
	"testing"

	"flatnet/internal/astopo"
)

// randomTieredDataset builds a random valley-structured topology with
// nonempty Tier-1/Tier-2 sets: a provider-free peer mesh on top (the
// Tier-1s — origins with zero providers), a mid tier partly tagged Tier-2,
// and the rest attaching below with random extra peering. This gives the
// equivalence suite origins of every shape the sweeps see, including
// origins inside the base exclusion sets (the un-mask-origin edge case).
func randomTieredDataset(rng *rand.Rand, n int) Dataset {
	g := astopo.NewGraph(n, n*3)
	asn := func(i int) astopo.ASN { return astopo.ASN(i + 1) }
	top := 2 + rng.Intn(3)
	if top > n {
		top = n
	}
	for i := 0; i < top; i++ {
		for j := i + 1; j < top; j++ {
			g.MustAddLink(asn(i), asn(j), astopo.P2P)
		}
	}
	for i := top; i < n; i++ {
		nprov := 1 + rng.Intn(2)
		for k := 0; k < nprov; k++ {
			p := rng.Intn(i)
			g.AddLinkIfAbsent(asn(p), asn(i), astopo.P2C)
		}
	}
	for k := 0; k < n; k++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			g.AddLinkIfAbsent(asn(a), asn(b), astopo.P2P)
		}
	}
	tier1 := make(astopo.ASSet)
	for i := 0; i < top; i++ {
		tier1[asn(i)] = struct{}{}
	}
	tier2 := make(astopo.ASSet)
	for i := top; i < n && i < top+4; i++ {
		if rng.Intn(2) == 0 {
			tier2[asn(i)] = struct{}{}
		}
	}
	return Dataset{Graph: g, Tier1: tier1, Tier2: tier2}
}

var allKinds = []Kind{Full, ProviderFree, Tier1Free, HierarchyFree}

// TestBatchMatchesScalarReachability is the golden equivalence suite for
// the bit-parallel sweep: on randomized tiered topologies, the batch
// ReachabilityAll must match the scalar per-origin sweep bit-for-bit for
// every origin and every Kind. The topologies include Tier-1 origins
// (zero providers, inside the Tier1Free base mask), Tier-2 origins, and —
// every tenth seed — graphs larger than one 64-lane block.
func TestBatchMatchesScalarReachability(t *testing.T) {
	for seed := int64(0); seed < 110; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(30)
		if seed%10 == 0 {
			n = 140 + rng.Intn(80) // multi-block sweep
		}
		ds := randomTieredDataset(rng, n)
		m := New(ds)
		for _, kind := range allKinds {
			batch, err := m.ReachabilityAll(kind)
			if err != nil {
				t.Fatalf("seed %d %v: batch: %v", seed, kind, err)
			}
			scalar, err := m.reachabilityRangeScalar(context.Background(), kind, 0, ds.Graph.NumASes(), 0)
			if err != nil {
				t.Fatalf("seed %d %v: scalar: %v", seed, kind, err)
			}
			for i := range scalar {
				if batch[i] != scalar[i] {
					a := ds.Graph.ASNAt(i)
					_, t1 := ds.Tier1[a]
					_, t2 := ds.Tier2[a]
					t.Fatalf("seed %d %v origin AS%d (tier1=%v tier2=%v, %d providers): batch=%d scalar=%d",
						seed, kind, a, t1, t2, len(ds.Graph.ProvidersOf(i)), batch[i], scalar[i])
				}
			}
		}
	}
}

// TestRangeSweepMatchesScalar covers the shard primitive: a sweep over an
// arbitrary dense range [lo, hi) — cut points off the 64-lane grid, so
// blocks straddle them — must equal the scalar per-origin sweep over the
// same range, for every kind.
func TestRangeSweepMatchesScalar(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 12 + rng.Intn(40)
		if seed%10 == 0 {
			n = 150 + rng.Intn(50) // multi-block: spans several 64-lane words
		}
		ds := randomTieredDataset(rng, n)
		m := New(ds)
		lo := rng.Intn(n)
		hi := lo + rng.Intn(n-lo)
		for _, kind := range allKinds {
			got := make([]int, hi-lo)
			if err := m.ReachabilityRangeIntoCtx(ctx, kind, lo, hi, 0, got); err != nil {
				t.Fatalf("seed %d kind %v range [%d, %d): %v", seed, kind, lo, hi, err)
			}
			want, err := m.reachabilityRangeScalar(ctx, kind, lo, hi, 0)
			if err != nil {
				t.Fatalf("seed %d kind %v range [%d, %d): scalar: %v", seed, kind, lo, hi, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d kind %v origin %d (AS%d): range sweep %d != scalar %d",
						seed, kind, lo+i, ds.Graph.ASNAt(lo+i), got[i], want[i])
				}
			}
		}
	}
}

// The kinds' exclusion masks nest (Full ⊆ ProviderFree ⊆ Tier1Free ⊆
// HierarchyFree), so per-origin reachability through the batch path must
// be monotone non-increasing across them.
func TestBatchReachMonotoneAcrossKinds(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ds := randomTieredDataset(rng, 15+rng.Intn(60))
		m := New(ds)
		prev, err := m.ReachabilityAll(Full)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range allKinds[1:] {
			cur, err := m.ReachabilityAll(kind)
			if err != nil {
				t.Fatal(err)
			}
			for i := range cur {
				if cur[i] > prev[i] {
					t.Fatalf("seed %d AS%d: reach grew %d -> %d from kind %v",
						seed, ds.Graph.ASNAt(i), prev[i], cur[i], kind)
				}
			}
			prev = cur
		}
	}
}

// Customer cone ⊆ provider-free reachability: everything in an AS's cone
// is reachable over provider→customer edges alone, which the provider-free
// subgraph never cuts. Run through the batch path.
func TestBatchConeWithinProviderFreeReach(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ds := randomTieredDataset(rng, 15+rng.Intn(60))
		m := New(ds)
		reach, err := m.ReachabilityAll(ProviderFree)
		if err != nil {
			t.Fatal(err)
		}
		cones := ds.Graph.ConeSizes()
		for i := range reach {
			// ConeSizes includes the AS itself; reach does not.
			if cones[i]-1 > reach[i] {
				t.Fatalf("seed %d AS%d: cone %d exceeds provider-free reach %d",
					seed, ds.Graph.ASNAt(i), cones[i], reach[i])
			}
		}
	}
}
