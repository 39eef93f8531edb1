package astopo_test

import (
	"testing"

	"flatnet/internal/astopo"
	"flatnet/internal/topogen"
)

// HasLink answers from the adjacency rows alone: on a generated world and
// on its FromFrozen view it agrees with a reference map built from Links()
// for every link in both orientations and for a strided grid of pairs, and
// neither graph holds a pair set afterwards. AddLink after Freeze still
// rejects a duplicate, in either orientation.
func TestHasLinkMatchesLinks(t *testing.T) {
	in, err := topogen.Generate(topogen.Internet2020(0.04987))
	if err != nil {
		t.Fatal(err)
	}
	view, err := astopo.FromFrozen(in.Graph.Frozen())
	if err != nil {
		t.Fatal(err)
	}
	links := in.Graph.Links()
	ref := make(map[[2]astopo.ASN]astopo.Rel, 2*len(links))
	for _, l := range links {
		ref[[2]astopo.ASN{l.A, l.B}] = l.Rel
		ref[[2]astopo.ASN{l.B, l.A}] = -l.Rel // P2C seen from the customer is C2P
	}
	for name, g := range map[string]*astopo.Graph{"generated": in.Graph, "FromFrozen": view} {
		check := func(a, b astopo.ASN) {
			t.Helper()
			want, wantOK := ref[[2]astopo.ASN{a, b}]
			if got, ok := g.HasLink(a, b); ok != wantOK || got != want {
				t.Fatalf("%s: HasLink(AS%d, AS%d) = %v,%v; want %v,%v", name, a, b, got, ok, want, wantOK)
			}
		}
		for _, l := range links {
			check(l.A, l.B)
			check(l.B, l.A)
		}
		nodes := g.ASes()
		for i := 0; i < len(nodes); i += 7 {
			for j := 3; j < len(nodes); j += 11 {
				check(nodes[i], nodes[j])
			}
			check(nodes[i], 0) // absent AS
		}
		if g.HoldsPairSet() {
			t.Errorf("%s: frozen graph holds a pair set after HasLink", name)
		}
		l := links[len(links)/2]
		if g.AddLink(l.A, l.B, l.Rel) == nil || g.AddLink(l.B, l.A, astopo.P2P) == nil {
			t.Errorf("%s: AddLink after Freeze accepted duplicate AS%d-AS%d", name, l.A, l.B)
		}
		if g.HoldsPairSet() || g.NumLinks() != len(links) {
			t.Errorf("%s: rejected duplicate left %d links, pair set %v", name, g.NumLinks(), g.HoldsPairSet())
		}
	}
}
