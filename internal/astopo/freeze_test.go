package astopo

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// referenceFrozen freezes links the straightforward way: sort and compact
// every endpoint into the node list, binary-search each endpoint's dense
// index, then count and fill the rows in link order as Freeze does.
func referenceFrozen(links []Link) Frozen {
	all := make([]ASN, 0, 2*len(links))
	for _, l := range links {
		all = append(all, l.A, l.B)
	}
	slices.Sort(all)
	nodes := slices.Compact(all)
	n := len(nodes)
	index := func(a ASN) int32 {
		i, _ := slices.BinarySearch(nodes, a)
		return int32(i)
	}
	prov := make([][]int32, n)
	cust := make([][]int32, n)
	peer := make([][]int32, n)
	for _, l := range links {
		a, b := index(l.A), index(l.B)
		if l.Rel == P2P {
			peer[a] = append(peer[a], b)
			peer[b] = append(peer[b], a)
		} else {
			cust[a] = append(cust[a], b)
			prov[b] = append(prov[b], a)
		}
	}
	f := Frozen{Nodes: nodes, Arena: []int32{}}
	for _, rows := range [][][]int32{prov, cust, peer} {
		off := make([]int32, 0, n+1)
		for _, r := range rows {
			off = append(off, int32(len(f.Arena)))
			f.Arena = append(f.Arena, r...)
		}
		off = append(off, int32(len(f.Arena)))
		switch {
		case f.ProvOff == nil:
			f.ProvOff = off
		case f.CustOff == nil:
			f.CustOff = off
		default:
			f.PeerOff = off
		}
	}
	for _, l := range links {
		f.LinkA = append(f.LinkA, l.A)
		f.LinkB = append(f.LinkB, l.B)
		f.LinkRel = append(f.LinkRel, l.Rel)
	}
	return f
}

func frozenEqual(a, b Frozen) bool {
	return slices.Equal(a.Nodes, b.Nodes) &&
		slices.Equal(a.ProvOff, b.ProvOff) && slices.Equal(a.CustOff, b.CustOff) &&
		slices.Equal(a.PeerOff, b.PeerOff) && slices.Equal(a.Arena, b.Arena) &&
		slices.Equal(a.LinkA, b.LinkA) && slices.Equal(a.LinkB, b.LinkB) &&
		slices.Equal(a.LinkRel, b.LinkRel)
}

// randomLinks returns m unique links between ASNs drawn by asn, with a
// random relationship and, for P2P links, a random endpoint order.
func randomLinks(rng *rand.Rand, m int, asn func() ASN) []Link {
	seen := make(map[uint64]bool, m)
	links := make([]Link, 0, m)
	for tries := 0; len(links) < m && tries < 100*m; tries++ {
		a, b := asn(), asn()
		if a == b || seen[PairKey(a, b)] {
			continue
		}
		seen[PairKey(a, b)] = true
		rel := P2C
		if rng.Intn(2) == 0 {
			rel = P2P
		}
		links = append(links, Link{A: a, B: b, Rel: rel})
	}
	return links
}

// Freeze numbers the nodes through a bitmap rank over narrow ASN spans and
// a radix sort over wide ones; its Frozen form must equal the sort +
// binary-search reference on any link list, including the ASN extremes,
// ASN spans of odd and even bit width, a generated world's shape (a few
// small named ASNs below a dense block), a hub holding most links, P2P
// links written in both endpoint orders, one link and no links at all.
// Both numbering paths must run.
func TestFreezeMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	hub := ASN(64512)
	cases := map[string][]Link{
		"empty": nil,
		"extremes": {
			{A: 0, B: math.MaxUint32, Rel: P2P},
			{A: math.MaxUint32, B: 1, Rel: P2C},
			{A: 0, B: 1 << 16, Rel: P2C},
			{A: 1<<16 - 1, B: 0, Rel: P2P},
			{A: 1 << 16, B: 1<<16 - 1, Rel: P2P},
			{A: math.MaxUint32 - 1, B: math.MaxUint32, Rel: P2C},
		},
		"p2p both orders": {
			{A: 5, B: 3, Rel: P2P}, {A: 3, B: 7, Rel: P2P},
			{A: 9, B: 5, Rel: P2P}, {A: 5, B: 7, Rel: P2P},
		},
		"one link":         {{A: 8, B: 7, Rel: P2C}},
		"dense small ASNs": randomLinks(rng, 3000, func() ASN { return ASN(rng.Intn(200)) }),
		"odd-width span":   randomLinks(rng, 3000, func() ASN { return 200000 + ASN(rng.Intn(1<<19)) }),
		"full ASN range":   randomLinks(rng, 5000, func() ASN { return ASN(rng.Uint32()) }),
		"low digit shared": randomLinks(rng, 2000, func() ASN { return ASN(rng.Intn(64)) << 16 }),
		"hub": randomLinks(rng, 4000, func() ASN {
			if rng.Intn(2) == 0 {
				return hub
			}
			return ASN(rng.Intn(1 << 20))
		}),
		"narrow odd span": randomLinks(rng, 3000, func() ASN { return 200001 + ASN(rng.Intn(4999)) }),
		"named below a block": randomLinks(rng, 6000, func() ASN {
			if rng.Intn(8) == 0 {
				return ASN(174 + 97*rng.Intn(600))
			}
			return 200000 + ASN(rng.Intn(3000))
		}),
	}
	paths := map[bool]int{}
	for name, links := range cases {
		if len(links) > 0 {
			lo, hi := links[0].A, links[0].A
			for _, l := range links {
				lo, hi = min(lo, l.A, l.B), max(hi, l.A, l.B)
			}
			paths[rankSpan(hi-lo, len(links))]++
		}
		want := referenceFrozen(links)
		got := FromLinks(slices.Clone(links)).Frozen()
		if !frozenEqual(got, want) {
			t.Errorf("%s: %d links: Frozen differs from the sort + binary-search reference", name, len(links))
		}
	}
	if paths[true] == 0 || paths[false] == 0 {
		t.Errorf("cases numbered %d times by rank and %d times by sort; both paths must run", paths[true], paths[false])
	}
}

// AddLinksIfAbsent must leave the graph exactly as AddLinkIfAbsent called
// on each link in turn: same added count, same Frozen arrays, and a
// duplicate check that still holds for the next single add. The batches
// repeat pairs in both endpoint orders, hold self pairs and pairs the
// graph already links as P2C, and run on empty, unfrozen and frozen
// graphs; the full uint32 range leaves no room for a sort key and takes
// the per-link path, which keeps a pair set, while narrow spans are sorted
// and drop it.
func TestAddLinksIfAbsentMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	narrow := func() ASN { return 200000 + ASN(rng.Intn(400)) }
	span13 := func() ASN { return 200000 + ASN(rng.Intn(1<<13)) } // partition, then three passes
	span19 := func() ASN { return 200000 + ASN(rng.Intn(1<<19)) } // partition, then four passes
	wide := func() ASN { return ASN(rng.Uint32()) }
	p2c := []Link{{A: 7, B: 9, Rel: P2C}, {A: 9, B: 11, Rel: P2C}, {A: 3, B: 7, Rel: P2P}}
	// stream draws n candidate links; about a third repeat an earlier
	// candidate or a base link, in either order.
	stream := func(n int, asn func() ASN, base []Link) []Link {
		out := make([]Link, 0, n)
		for len(out) < n {
			var l Link
			switch r := rng.Intn(6); {
			case r == 0 && len(out) > 0:
				l = out[rng.Intn(len(out))]
			case r == 1 && len(out) > 0:
				l = out[rng.Intn(len(out))]
				l.A, l.B = l.B, l.A
			case r == 2 && len(base) > 0:
				l = base[rng.Intn(len(base))]
				if rng.Intn(2) == 0 {
					l.A, l.B = l.B, l.A
				}
			default:
				l = Link{A: asn(), B: asn()}
			}
			l.Rel = Rel(-rng.Intn(2)) // P2C or P2P, whatever the repeat was
			out = append(out, l)
		}
		return out
	}
	narrowBase := randomLinks(rng, 300, narrow)
	wideBase := randomLinks(rng, 300, wide)
	cases := []struct {
		name     string
		base     []Link
		batch    []Link
		freeze   bool
		pairsSet bool // the per-link path ran
	}{
		{name: "empty batch", base: p2c},
		{name: "empty graph", batch: stream(2000, narrow, nil)},
		{name: "repeats in both orders", base: p2c, batch: []Link{
			{A: 5, B: 6, Rel: P2P}, {A: 6, B: 5, Rel: P2P}, {A: 5, B: 6, Rel: P2C},
			{A: 8, B: 5, Rel: P2C}, {A: 5, B: 8, Rel: P2P}, {A: 6, B: 5, Rel: P2C},
		}},
		{name: "self pairs", base: p2c, batch: []Link{
			{A: 4, B: 4, Rel: P2P}, {A: 4, B: 12, Rel: P2P}, {A: 12, B: 12, Rel: P2C}, {A: 12, B: 4, Rel: P2P},
		}},
		{name: "present as P2C", base: p2c, batch: []Link{
			{A: 9, B: 7, Rel: P2P}, {A: 7, B: 9, Rel: P2P}, {A: 11, B: 9, Rel: P2P},
			{A: 7, B: 3, Rel: P2C}, {A: 7, B: 13, Rel: P2P},
		}},
		{name: "random stream", base: narrowBase, batch: stream(20000, narrow, narrowBase)},
		{name: "random stream, frozen", base: narrowBase, batch: stream(5000, narrow, narrowBase), freeze: true},
		{name: "random stream, 13-bit span", base: narrowBase, batch: stream(6000, span13, narrowBase)},
		{name: "random stream, 19-bit span", base: narrowBase, batch: stream(5000, span19, narrowBase)},
		{name: "full uint32 range", base: wideBase, batch: stream(3000, wide, wideBase), pairsSet: true},
	}
	for _, tc := range cases {
		batch, seq := FromLinks(slices.Clone(tc.base)), FromLinks(slices.Clone(tc.base))
		if tc.freeze {
			batch.Freeze()
			seq.Freeze()
		}
		want := 0
		for _, l := range tc.batch {
			if seq.AddLinkIfAbsent(l.A, l.B, l.Rel) {
				want++
			}
		}
		if got := batch.AddLinksIfAbsent(slices.Clone(tc.batch)); got != want {
			t.Errorf("%s: AddLinksIfAbsent added %d links, AddLinkIfAbsent in turn %d", tc.name, got, want)
		}
		if want > 0 && batch.HoldsPairSet() != tc.pairsSet {
			t.Errorf("%s: batch left a pair set: %v, want %v", tc.name, batch.HoldsPairSet(), tc.pairsSet)
		}
		if !frozenEqual(batch.Frozen(), seq.Frozen()) {
			t.Errorf("%s: Frozen after the batch differs from sequential adds", tc.name)
		}
		for _, l := range tc.batch {
			if batch.AddLinkIfAbsent(l.B, l.A, P2P) {
				t.Fatalf("%s: AS%d-AS%d added again after the batch", tc.name, l.A, l.B)
			}
		}
	}
}

// AddLinkIfAbsent's open-addressed pair set must accept exactly the pairs a
// map accepts, in either endpoint order, through several table growths and
// after a Freeze drops the set and the next add rebuilds it from the links.
func TestAddLinkIfAbsentMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := NewGraph(0, 0)
	ref := make(map[uint64]bool)
	var want []Link
	add := func(step int) {
		a, b := ASN(rng.Intn(300)), ASN(rng.Intn(300))
		rel := Rel(-rng.Intn(2)) // P2C or P2P
		absent := a != b && !ref[PairKey(a, b)]
		if got := g.AddLinkIfAbsent(a, b, rel); got != absent {
			t.Fatalf("step %d: AddLinkIfAbsent(AS%d, AS%d) = %v, want %v", step, a, b, got, absent)
		}
		if absent {
			ref[PairKey(a, b)] = true
			want = append(want, Link{A: a, B: b, Rel: rel})
		}
	}
	for step := 0; step < 4000; step++ {
		add(step)
	}
	if size := len(g.pairs.slots); size < 1<<10 {
		t.Fatalf("pair set holds %d slots after %d links: it never grew past its first sizes", size, len(want))
	}
	g.Freeze()
	if g.HoldsPairSet() {
		t.Fatal("Freeze kept the pair set")
	}
	for step := 4000; step < 8000; step++ {
		add(step)
	}
	if !g.HoldsPairSet() {
		t.Fatal("adds after Freeze hold no pair set")
	}
	if !slices.Equal(g.Links(), want) {
		t.Fatalf("graph holds %d links, map reference %d", g.NumLinks(), len(want))
	}
	if got := g.pairs.n; got != len(want) {
		t.Errorf("pair set counts %d keys, want %d", got, len(want))
	}
	if !frozenEqual(g.Frozen(), referenceFrozen(want)) {
		t.Error("Frozen after the adds differs from the reference")
	}
}
