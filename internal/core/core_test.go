package core

import (
	"context"
	"testing"

	"flatnet/internal/astopo"
	"flatnet/internal/bgpsim"
	"flatnet/internal/topogen"
)

// fixtureDataset builds the Fig.-1-style topology from the bgpsim tests:
// cloud 100 with provider 1 (a Tier-1), peerings with Tier-1 2, Tier-2 3,
// and user ISPs 4, 5; ISP 6 behind the Tier-1, ISP 7 behind the Tier-2.
func fixtureDataset(t *testing.T) Dataset {
	t.Helper()
	g := astopo.NewGraph(0, 0)
	add := func(a, b astopo.ASN, r astopo.Rel) {
		t.Helper()
		if err := g.AddLink(a, b, r); err != nil {
			t.Fatal(err)
		}
	}
	add(1, 100, astopo.P2C)
	add(100, 2, astopo.P2P)
	add(100, 3, astopo.P2P)
	add(100, 4, astopo.P2P)
	add(100, 5, astopo.P2P)
	add(2, 6, astopo.P2C)
	add(3, 7, astopo.P2C)
	add(1, 2, astopo.P2P)
	return Dataset{Graph: g, Tier1: astopo.NewASSet(1, 2), Tier2: astopo.NewASSet(3)}
}

func TestReachabilityKinds(t *testing.T) {
	m := New(fixtureDataset(t))
	cases := []struct {
		kind Kind
		want int
	}{
		{Full, 7},
		{ProviderFree, 6},  // loses Tier-1 provider 1
		{Tier1Free, 4},     // loses Tier-1 peer 2 and ISP 6
		{HierarchyFree, 2}, // loses Tier-2 3 and ISP 7; keeps user ISPs 4, 5
	}
	for _, c := range cases {
		got, err := m.Reachability(100, c.kind)
		if err != nil {
			t.Fatalf("%v: %v", c.kind, err)
		}
		if got != c.want {
			t.Errorf("Reachability(cloud, %v) = %d, want %d", c.kind, got, c.want)
		}
	}
}

func TestOriginInExclusionSetNotMasked(t *testing.T) {
	m := New(fixtureDataset(t))
	// Tier-1 AS 2's own Tier-1-free reachability must not exclude AS 2.
	got, err := m.Reachability(2, Tier1Free)
	if err != nil {
		t.Fatal(err)
	}
	// AS 2 reaches its customer 6 and... its peers 100 and 1 are its only
	// other links; 1 is a Tier-1 (masked). Via peer 100 nothing is
	// exported (peer routes don't propagate to peers). So 6 and 100.
	if got != 2 {
		t.Errorf("Reachability(AS2, Tier1Free) = %d, want 2", got)
	}
}

func TestUnreachable(t *testing.T) {
	m := New(fixtureDataset(t))
	uns, err := m.Unreachable(context.Background(), []astopo.ASN{100}, HierarchyFree)
	if err != nil {
		t.Fatal(err)
	}
	un := uns[0]
	// Subgraph removes 1, 2, 3; reachable are 4, 5; unreachable: 6, 7.
	want := map[astopo.ASN]bool{6: true, 7: true}
	if len(un) != len(want) {
		t.Fatalf("Unreachable = %v, want {6,7}", un)
	}
	for _, v := range un {
		if a := m.ds.Graph.ASNAt(int(v)); !want[a] {
			t.Errorf("unexpected unreachable AS%d", a)
		}
	}
}

func TestReachabilityAllMatchesSingle(t *testing.T) {
	in, err := topogen.Generate(topogen.Internet2020(0.0171))
	if err != nil {
		t.Fatal(err)
	}
	m := New(Dataset{Graph: in.Graph, Tier1: in.Tier1, Tier2: in.Tier2})
	all, err := m.ReachabilityAll(HierarchyFree)
	if err != nil {
		t.Fatal(err)
	}
	// Spot-check a handful of ASes against the single-origin path.
	for _, a := range []astopo.ASN{15169, 8075, 3356, 6939} {
		i, ok := in.Graph.Index(a)
		if !ok {
			t.Fatalf("AS%d missing", a)
		}
		single, err := m.Reachability(a, HierarchyFree)
		if err != nil {
			t.Fatal(err)
		}
		if all[i] != single {
			t.Errorf("AS%d: all=%d single=%d", a, all[i], single)
		}
	}
}

func TestTopReliance(t *testing.T) {
	m := New(fixtureDataset(t))
	top, err := m.TopReliance(100, Full, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 3 {
		t.Fatalf("TopReliance returned %d entries", len(top))
	}
	for _, e := range top {
		if e.AS == 100 {
			t.Error("origin included in TopReliance")
		}
	}
	for i := 1; i < len(top); i++ {
		if top[i].Value > top[i-1].Value {
			t.Error("TopReliance not sorted descending")
		}
	}
	// Tier-1 2 and Tier-2 3 carry the most destinations (6 and 7 sit
	// behind them); each should appear with reliance >= 2 (itself + its
	// customer).
	vals := map[astopo.ASN]float64{}
	for _, e := range top {
		vals[e.AS] = e.Value
	}
	if vals[2] < 2 || vals[3] < 2 {
		t.Errorf("expected AS2 and AS3 reliance >= 2: %v", vals)
	}
}

func TestRelianceIncludesOrigin(t *testing.T) {
	m := New(fixtureDataset(t))
	entries, err := m.Reliance(100, Full)
	if err != nil {
		t.Fatal(err)
	}
	var originVal float64
	for _, e := range entries {
		if e.AS == 100 {
			originVal = e.Value
		}
	}
	if originVal != 7 {
		t.Errorf("origin reliance = %v, want 7 (all destinations' paths end there)", originVal)
	}
}

func TestMaskVsBgpsimEquivalence(t *testing.T) {
	// The core Mask must agree with hand-built bgpsim masks.
	ds := fixtureDataset(t)
	m := New(ds)
	mask := m.Mask(100, HierarchyFree)
	want := bgpsim.BuildExclude(ds.Graph, astopo.NewASSet(1, 2, 3))
	for i := range mask {
		if mask[i] != want[i] {
			t.Fatalf("mask mismatch at %d", i)
		}
	}
}
