package astopo

import (
	"testing"
)

// buildTestGraph constructs the small topology used across these tests:
//
//	    T1a ---- T1b        (p2p clique)
//	   /   \    /   \
//	  M1    M2      M3      (customers of the T1s; M1-M2 peer)
//	 /  \     \    /
//	S1  S2     S3           (stubs)
//
// plus an isolated peering pair E1-E2 reachable only via S1 (provider of E1).
func buildTestGraph(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph(0, 0)
	add := func(a, b ASN, r Rel) {
		t.Helper()
		if err := g.AddLink(a, b, r); err != nil {
			t.Fatalf("AddLink(%d,%d,%v): %v", a, b, r, err)
		}
	}
	add(1, 2, P2P)   // T1a - T1b
	add(1, 11, P2C)  // T1a -> M1
	add(1, 12, P2C)  // T1a -> M2
	add(2, 12, P2C)  // T1b -> M2
	add(2, 13, P2C)  // T1b -> M3
	add(11, 12, P2P) // M1 - M2
	add(11, 101, P2C)
	add(11, 102, P2C)
	add(12, 103, P2C)
	add(13, 103, P2C) // S3 multihomed to M2 and M3
	add(101, 201, P2C)
	add(201, 202, P2P)
	return g
}

func TestAddLinkValidation(t *testing.T) {
	g := NewGraph(0, 0)
	if err := g.AddLink(5, 5, P2P); err == nil {
		t.Error("self link accepted")
	}
	if err := g.AddLink(1, 2, Rel(7)); err == nil {
		t.Error("invalid relationship accepted")
	}
	if err := g.AddLink(1, 2, P2C); err != nil {
		t.Fatalf("valid link rejected: %v", err)
	}
	if err := g.AddLink(2, 1, P2P); err == nil {
		t.Error("duplicate link (reversed order) accepted")
	}
	if err := g.AddLink(1, 2, P2C); err == nil {
		t.Error("duplicate link accepted")
	}
}

func TestHasLinkOrientation(t *testing.T) {
	g := buildTestGraph(t)
	cases := []struct {
		a, b ASN
		rel  Rel
		ok   bool
	}{
		{1, 2, P2P, true},
		{2, 1, P2P, true},
		{1, 11, P2C, true},
		{11, 1, C2P, true},
		{13, 103, P2C, true},
		{103, 13, C2P, true},
		{1, 13, 0, false},
		{999, 1, 0, false},
	}
	for _, c := range cases {
		rel, ok := g.HasLink(c.a, c.b)
		if ok != c.ok || (ok && rel != c.rel) {
			t.Errorf("HasLink(%d,%d) = %v,%v; want %v,%v", c.a, c.b, rel, ok, c.rel, c.ok)
		}
	}
}

func TestAdjacency(t *testing.T) {
	g := buildTestGraph(t)
	if got := g.NumASes(); got != 10 {
		t.Fatalf("NumASes = %d, want 10", got)
	}
	wantProviders := map[ASN][]ASN{
		12:  {1, 2},
		103: {12, 13},
		1:   nil,
	}
	for a, want := range wantProviders {
		got := g.Providers(a)
		if !equalASNs(got, want) {
			t.Errorf("Providers(%d) = %v, want %v", a, got, want)
		}
	}
	if got := g.Customers(11); !equalASNs(got, []ASN{101, 102}) {
		t.Errorf("Customers(11) = %v", got)
	}
	if got := g.Peers(12); !equalASNs(got, []ASN{11}) {
		t.Errorf("Peers(12) = %v", got)
	}
	if got := g.Degree(12); got != 4 {
		t.Errorf("Degree(12) = %d, want 4", got)
	}
	if got := g.TransitDegree(12); got != 3 {
		t.Errorf("TransitDegree(12) = %d, want 3", got)
	}
}

// HasCustomers agrees with the customer rows on a frozen graph, on its
// FromFrozen view, and after a mutation turns a stub into a provider.
func TestHasCustomers(t *testing.T) {
	g := buildTestGraph(t)
	check := func(name string, g *Graph, want map[ASN]bool) {
		t.Helper()
		for i, a := range g.ASes() {
			if got := g.HasCustomers(i); got != want[a] || got != (len(g.CustomersOf(i)) > 0) {
				t.Errorf("%s: HasCustomers(AS%d) = %v, want %v", name, a, got, want[a])
			}
		}
	}
	want := map[ASN]bool{1: true, 2: true, 11: true, 12: true, 13: true, 101: true}
	check("frozen", g, want)
	view, err := FromFrozen(g.Frozen())
	if err != nil {
		t.Fatal(err)
	}
	check("FromFrozen", view, want)
	if err := view.AddLink(202, 301, P2C); err != nil {
		t.Fatal(err)
	}
	want[202] = true
	check("mutated view", view, want)
}

// AddLinkIfAbsent adds a P2C or P2P link only to an unlinked pair, in
// either orientation, and never changes an existing link's type.
func TestAddLinkIfAbsent(t *testing.T) {
	g := buildTestGraph(t)
	for _, c := range []struct {
		a, b ASN
		rel  Rel
	}{
		{1, 11, P2P}, {11, 1, P2P}, {1, 11, P2C}, {11, 1, P2C}, // stored 1->11 p2c
		{1, 2, P2C}, {2, 1, P2C}, {2, 1, P2P}, // stored 1-2 p2p
	} {
		if g.AddLinkIfAbsent(c.a, c.b, c.rel) {
			t.Errorf("AddLinkIfAbsent(%d, %d, %v) added over an existing link", c.a, c.b, c.rel)
		}
	}
	if rel, _ := g.HasLink(1, 11); rel != P2C {
		t.Errorf("existing p2c link became %v", rel)
	}
	if rel, _ := g.HasLink(2, 1); rel != P2P {
		t.Errorf("existing p2p link became %v", rel)
	}
	n := g.NumLinks()
	if !g.AddLinkIfAbsent(101, 103, P2P) || !g.AddLinkIfAbsent(202, 102, P2C) {
		t.Fatal("AddLinkIfAbsent refused a new link")
	}
	if g.AddLinkIfAbsent(103, 101, P2C) || g.AddLinkIfAbsent(102, 202, P2P) {
		t.Error("AddLinkIfAbsent accepted a new link again in reversed order")
	}
	if g.AddLinkIfAbsent(7, 7, P2P) || g.AddLinkIfAbsent(7, 7, P2C) {
		t.Error("self link accepted")
	}
	if rel, ok := g.HasLink(103, 101); !ok || rel != P2P {
		t.Errorf("new peer link = %v,%v", rel, ok)
	}
	if rel, ok := g.HasLink(102, 202); !ok || rel != C2P {
		t.Errorf("new customer link seen from the customer = %v,%v", rel, ok)
	}
	if got := g.NumLinks(); got != n+2 {
		t.Errorf("NumLinks = %d, want %d", got, n+2)
	}
}

func TestCustomerCone(t *testing.T) {
	g := buildTestGraph(t)
	cases := []struct {
		a    ASN
		want []ASN
	}{
		{1, []ASN{1, 11, 12, 101, 102, 103, 201}},
		{11, []ASN{11, 101, 102, 201}},
		{101, []ASN{101, 201}},
		{202, []ASN{202}},
		{13, []ASN{13, 103}},
	}
	for _, c := range cases {
		got := c.a.sorted(g.CustomerCone(c.a))
		if !equalASNs(got, c.want) {
			t.Errorf("CustomerCone(%d) = %v, want %v", c.a, got, c.want)
		}
	}
}

// sorted is a helper hung off ASN purely to keep call sites short.
func (ASN) sorted(in []ASN) []ASN {
	out := append([]ASN(nil), in...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func TestConeSizesMatchesCustomerCone(t *testing.T) {
	g := buildTestGraph(t)
	sizes := g.ConeSizes()
	for i, a := range g.ASes() {
		if want := len(g.CustomerCone(a)); sizes[i] != want {
			t.Errorf("ConeSizes[%d] (AS%d) = %d, want %d", i, a, sizes[i], want)
		}
	}
}

func TestClique(t *testing.T) {
	g := buildTestGraph(t)
	got := ASN(0).sorted(g.Clique())
	if !equalASNs(got, []ASN{1, 2}) {
		t.Errorf("Clique = %v, want [1 2]", got)
	}
}

func TestCliqueExcludesNonMutualPeers(t *testing.T) {
	g := NewGraph(0, 0)
	// Three provider-free ASes, but 3 does not peer with 2.
	g.MustAddLink(1, 2, P2P)
	g.MustAddLink(1, 3, P2P)
	g.MustAddLink(1, 10, P2C)
	g.MustAddLink(2, 11, P2C)
	g.MustAddLink(3, 12, P2C)
	g.MustAddLink(2, 12, P2C) // give 2 higher transit degree than 3
	got := ASN(0).sorted(g.Clique())
	if !equalASNs(got, []ASN{1, 2}) {
		t.Errorf("Clique = %v, want [1 2]", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := buildTestGraph(t)
	n := g.NumLinks()
	c := g.Clone()
	if !c.AddLinkIfAbsent(102, 103, P2P) {
		t.Fatal("clone refused new link")
	}
	if g.NumLinks() != n {
		t.Error("mutating clone changed original")
	}
	if _, ok := g.HasLink(102, 103); ok {
		t.Error("original sees clone's link")
	}
}

func TestASSet(t *testing.T) {
	s := NewASSet(3, 1, 2)
	if !s.Has(1) || s.Has(4) {
		t.Error("membership wrong")
	}
	s.Add(4)
	u := s.Union(NewASSet(5))
	if got := u.Slice(); !equalASNs(got, []ASN{1, 2, 3, 4, 5}) {
		t.Errorf("Union.Slice = %v", got)
	}
	if s.Has(5) {
		t.Error("Union mutated receiver")
	}
}

func equalASNs(a, b []ASN) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
