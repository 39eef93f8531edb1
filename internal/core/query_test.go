package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"flatnet/internal/astopo"
	"flatnet/internal/bgpsim"
)

func TestKindFromString(t *testing.T) {
	for k := Full; k <= HierarchyFree; k++ {
		got, err := KindFromString(k.String())
		if err != nil {
			t.Fatalf("KindFromString(%q): %v", k.String(), err)
		}
		if got != k {
			t.Errorf("KindFromString(%q) = %v, want %v", k.String(), got, k)
		}
	}
	if _, err := KindFromString("bogus"); err == nil {
		t.Error("KindFromString accepted an unknown kind")
	}
}

// TestReachabilityManyMatchesScalar covers every width of the one
// multi-origin path — a single origin, a partial block on either side of
// the 64-lane word, exactly one word, and several blocks — with duplicates
// in the list, and checks each answer, in input order, against per-origin
// Reachability and the scalar oracle.
func TestReachabilityManyMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ds := genDataset(t)
	m := New(ds)
	g := ds.Graph
	all := g.ASes()
	sim := bgpsim.New(g)
	for _, width := range []int{1, 2, 63, 64, 65, len(all) + 30} {
		origins := []astopo.ASN{all[rng.Intn(len(all))]}
		for len(origins) < width {
			if len(origins)%9 == 1 {
				origins = append(origins, origins[rng.Intn(len(origins))]) // duplicate
			} else {
				origins = append(origins, all[rng.Intn(len(all))])
			}
		}
		for kind := Full; kind <= HierarchyFree; kind++ {
			got, err := m.ReachabilityMany(context.Background(), origins, kind)
			if err != nil {
				t.Fatalf("width %d %v: %v", width, kind, err)
			}
			for i, o := range origins {
				point, err := m.Reachability(o, kind)
				if err != nil {
					t.Fatal(err)
				}
				want, err := sim.ReachabilityCount(bgpsim.Config{Origin: o, Exclude: m.Mask(o, kind)})
				if err != nil {
					t.Fatal(err)
				}
				if got[i] != want || point != want {
					t.Errorf("width %d %v: ReachabilityMany[%d] (AS%d) = %d, Reachability = %d, scalar = %d", width, kind, i, o, got[i], point, want)
				}
			}
		}
	}
}

func TestReachabilityManyUnknownOrigin(t *testing.T) {
	m := New(fixtureDataset(t))
	if _, err := m.ReachabilityMany(context.Background(), []astopo.ASN{99999}, Full); err == nil {
		t.Error("ReachabilityMany accepted an origin outside the graph")
	}
}

func TestQueryCtxCanceled(t *testing.T) {
	m := New(fixtureDataset(t))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.ReachabilityCtx(ctx, 100, HierarchyFree); !errors.Is(err, context.Canceled) {
		t.Errorf("ReachabilityCtx: err = %v, want context.Canceled", err)
	}
	if _, err := m.RelianceCtx(ctx, 100, Full); !errors.Is(err, context.Canceled) {
		t.Errorf("RelianceCtx: err = %v, want context.Canceled", err)
	}
	if _, err := m.TopRelianceCtx(ctx, 100, Full, 5); !errors.Is(err, context.Canceled) {
		t.Errorf("TopRelianceCtx: err = %v, want context.Canceled", err)
	}
	if _, err := m.ReachabilityMany(ctx, m.ds.Graph.ASes(), Full); !errors.Is(err, context.Canceled) {
		t.Errorf("ReachabilityMany: err = %v, want context.Canceled", err)
	}
	// The metrics remain usable after aborted queries.
	n, err := m.Reachability(100, Full)
	if err != nil {
		t.Fatal(err)
	}
	if n != 7 {
		t.Fatalf("Reachability after aborted queries = %d, want 7", n)
	}
}
