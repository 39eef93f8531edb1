package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"flatnet/internal/astopo"
	"flatnet/internal/bgpsim"
)

// scalarUnreachable is the oracle for Unreachable: one scalar Simulator run
// over Mask(o, kind), keeping the ASes left without a route that the mask
// does not exclude, the origin excepted, by ascending dense index.
func scalarUnreachable(sim *bgpsim.Simulator, m *Metrics, o astopo.ASN, kind Kind) ([]int32, error) {
	mask := m.Mask(o, kind)
	res, err := sim.Run(bgpsim.Config{Origin: o, Exclude: mask})
	if err != nil {
		return nil, err
	}
	g := m.ds.Graph
	var out []int32
	for i, c := range res.Class {
		if c == bgpsim.ClassNone && !mask[i] && g.ASNAt(i) != o {
			out = append(out, int32(i))
		}
	}
	return out, nil
}

// checkUnreachable compares Unreachable over origins with the scalar
// oracle, origin by origin.
func checkUnreachable(t *testing.T, m *Metrics, origins []astopo.ASN, kind Kind, label string) {
	t.Helper()
	got, err := m.Unreachable(context.Background(), origins, kind)
	if err != nil {
		t.Fatalf("%s %v: %v", label, kind, err)
	}
	sim := bgpsim.New(m.ds.Graph)
	for k, o := range origins {
		want, err := scalarUnreachable(sim, m, o, kind)
		if err != nil {
			t.Fatalf("%s %v AS%d: oracle: %v", label, kind, o, err)
		}
		if !slices.Equal(got[k], want) {
			t.Fatalf("%s %v origin %d (AS%d): %d unreachable, oracle %d\n got %v\nwant %v",
				label, kind, k, o, len(got[k]), len(want), got[k], want)
		}
	}
}

// On the 110-topology corpus, random origin lists (repeats allowed, some
// longer than one 64-lane block) under all four kinds match the oracle.
func TestUnreachableMatchesScalarOracle(t *testing.T) {
	for seed := int64(0); seed < 110; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(30)
		if seed%10 == 0 {
			n = 140 + rng.Intn(80)
		}
		ds := randomTieredDataset(rng, n)
		m := New(ds)
		g := ds.Graph
		for _, kind := range allKinds {
			origins := make([]astopo.ASN, 1+rng.Intn(2*bgpsim.BatchLanes))
			for k := range origins {
				origins[k] = g.ASNAt(rng.Intn(g.NumASes()))
			}
			checkUnreachable(t, m, origins, kind, fmt.Sprintf("seed %d", seed))
		}
	}
}

// Fig. 4's twelve networks at the paper's scale: the four clouds and eight
// transit providers, hierarchy-free, in one block.
func TestUnreachableMatchesScalarFullScale(t *testing.T) {
	ds := fullScaleDataset(t)
	nets := []astopo.ASN{3356, 6939, 15169, 8075, 36351, 174, 6461, 1299, 3257, 2914, 7713, 16509}
	checkUnreachable(t, New(ds), nets, HierarchyFree, "scale 1.0")
}

// An Unreachable canceled between engine stages returns the context's
// error and hands its engine back clean: the next call on the same
// Metrics, which takes that engine from the pool, matches the oracle.
func TestUnreachableCanceledThenReused(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	ds := randomTieredDataset(rng, 200)
	m := New(ds)
	g := ds.Graph
	origins := make([]astopo.ASN, 40)
	for k := range origins {
		origins[k] = g.ASNAt(rng.Intn(g.NumASes()))
	}
	for _, kind := range allKinds {
		for after := 1; after <= 3; after++ {
			_, err := m.Unreachable(&lateCancelCtx{Context: context.Background(), after: after}, origins, kind)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%v canceled after %d checks: err = %v, want context.Canceled", kind, after, err)
			}
			checkUnreachable(t, m, origins, kind, fmt.Sprintf("after cancel at check %d", after))
		}
	}
	if _, err := m.Unreachable(context.Background(), []astopo.ASN{g.ASNAt(0), 99999999}, Full); err == nil {
		t.Error("an origin outside the graph was accepted")
	}
}
