package bgpsim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"flatnet/internal/astopo"
)

// This file cross-validates the three-stage propagation against a
// brute-force reference implementation: a literal fixed-point iteration of
// BGP route selection and valley-free export. Random topologies are
// generated and every AS's route class, best length, reachability, and
// tied-best next-hop set must agree.

// refRoute is one AS's routing state in the reference engine.
type refRoute struct {
	class Class
	dist  int32
	nhops map[int32]bool
}

// refPropagate computes the Gao-Rexford fixed point by simultaneous
// iteration: in every round each AS re-selects its best routes from its
// neighbors' previous-round state, until nothing changes.
func refPropagate(g *astopo.Graph, origin astopo.ASN, exclude []bool) []refRoute {
	g.Freeze()
	n := g.NumASes()
	state := make([]refRoute, n)
	for i := range state {
		state[i] = refRoute{class: ClassNone, dist: -1}
	}
	oi, _ := g.Index(origin)
	state[oi] = refRoute{class: ClassOrigin, dist: 0}

	// relClass returns the class v would assign a route learned from u.
	relClass := func(v, u int32) Class {
		for _, c := range g.CustomersOf(int(v)) {
			if c == u {
				return ClassCustomer
			}
		}
		for _, p := range g.PeersOf(int(v)) {
			if p == u {
				return ClassPeer
			}
		}
		return ClassProvider
	}
	// exports reports whether u announces its best route to v.
	exports := func(u, v int32) bool {
		if state[u].class == ClassNone {
			return false
		}
		if state[u].class == ClassOrigin || state[u].class == ClassCustomer {
			return true
		}
		// peer/provider-learned: only to customers.
		for _, c := range g.CustomersOf(int(u)) {
			if c == v {
				return true
			}
		}
		return false
	}

	for round := 0; round < n+2; round++ {
		changed := false
		next := make([]refRoute, n)
		copy(next, state)
		for v := int32(0); v < int32(n); v++ {
			if int(v) == oi {
				continue
			}
			if exclude != nil && exclude[v] {
				continue
			}
			best := refRoute{class: ClassNone, dist: -1, nhops: map[int32]bool{}}
			consider := func(u int32) {
				if exclude != nil && exclude[u] {
					return
				}
				if !exports(u, v) {
					return
				}
				c := relClass(v, u)
				d := state[u].dist + 1
				switch {
				case best.class == ClassNone || c > best.class || (c == best.class && d < best.dist):
					best = refRoute{class: c, dist: d, nhops: map[int32]bool{u: true}}
				case c == best.class && d == best.dist:
					best.nhops[u] = true
				}
			}
			for _, u := range g.ProvidersOf(int(v)) {
				consider(u)
			}
			for _, u := range g.PeersOf(int(v)) {
				consider(u)
			}
			for _, u := range g.CustomersOf(int(v)) {
				consider(u)
			}
			if best.class != next[v].class || best.dist != next[v].dist || !sameSet(best.nhops, next[v].nhops) {
				next[v] = best
				changed = true
			}
		}
		state = next
		if !changed {
			break
		}
	}
	return state
}

func sameSet(a, b map[int32]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// randomTopology builds a small random valley-structured graph: a few
// provider-free "top" ASes meshed as peers, others attaching below with
// random extra peering.
func randomTopology(rng *rand.Rand) *astopo.Graph {
	n := 8 + rng.Intn(18)
	g := astopo.NewGraph(n, n*3)
	asn := func(i int) astopo.ASN { return astopo.ASN(i + 1) }
	top := 2 + rng.Intn(2)
	for i := 0; i < top; i++ {
		for j := i + 1; j < top; j++ {
			g.MustAddLink(asn(i), asn(j), astopo.P2P)
		}
	}
	for i := top; i < n; i++ {
		// providers among earlier nodes
		nprov := 1 + rng.Intn(2)
		for k := 0; k < nprov; k++ {
			p := rng.Intn(i)
			g.AddLinkIfAbsent(asn(p), asn(i), astopo.P2C)
		}
	}
	// random extra peer links
	for k := 0; k < n; k++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			g.AddLinkIfAbsent(asn(a), asn(b), astopo.P2P)
		}
	}
	return g
}

func TestPropagationMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomTopology(rng)
		g.Freeze()
		all := g.ASes()
		origin := all[rng.Intn(len(all))]

		var exclude []bool
		if rng.Intn(2) == 1 {
			exclude = make([]bool, g.NumASes())
			oi, _ := g.Index(origin)
			for i := range exclude {
				if i != oi && rng.Intn(5) == 0 {
					exclude[i] = true
				}
			}
		}

		sim := New(g)
		res, err := sim.Run(Config{Origin: origin, Exclude: exclude, TrackNextHops: true})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		ref := refPropagate(g, origin, exclude)
		for i := range ref {
			if int32(i) == res.Origin {
				continue
			}
			if ref[i].class != res.Class[i] || ref[i].dist != res.Dist[i] {
				t.Logf("seed %d AS%d: ref %v/%d, sim %v/%d",
					seed, g.ASNAt(i), ref[i].class, ref[i].dist, res.Class[i], res.Dist[i])
				return false
			}
			if ref[i].class == ClassNone {
				continue
			}
			got := map[int32]bool{}
			for _, h := range res.NextHops(int32(i)) {
				got[h] = true
			}
			if !sameSet(ref[i].nhops, got) {
				t.Logf("seed %d AS%d: ref nhops %v, sim nhops %v", seed, g.ASNAt(i), ref[i].nhops, got)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Valley-free property: every sampled best path has zero or more c2p links,
// at most one p2p link, then zero or more p2c links.
func TestSampledPathsValleyFree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomTopology(rng)
		g.Freeze()
		all := g.ASes()
		origin := all[rng.Intn(len(all))]
		sim := New(g)
		res, err := sim.Run(Config{Origin: origin, TrackNextHops: true})
		if err != nil {
			return false
		}
		for ti, tASN := range all {
			if res.Class[ti] == ClassNone {
				continue
			}
			// Sample one best path: the smallest-ASN next hop at each step.
			p := []astopo.ASN{tASN}
			for cur := int32(ti); cur != res.Origin; {
				hops := res.NextHops(cur)
				if len(hops) == 0 {
					t.Logf("seed %d: AS%d holds a route but no next hop", seed, g.ASNAt(int(cur)))
					return false
				}
				best := hops[0]
				for _, h := range hops[1:] {
					if g.ASNAt(int(h)) < g.ASNAt(int(best)) {
						best = h
					}
				}
				cur = best
				p = append(p, g.ASNAt(int(cur)))
			}
			// Announcement travels origin->t. Valley-free as seen by
			// the traffic direction t->origin (p itself): uphill
			// (c2p) then <=1 peer then downhill (p2c).
			phase := 0 // 0=climb 1=descend
			peers := 0
			for i := 1; i < len(p); i++ {
				rel, ok := g.HasLink(p[i-1], p[i])
				if !ok {
					return false
				}
				switch rel {
				case astopo.C2P: // climbing
					if phase != 0 {
						t.Logf("seed %d: valley in %v at %d", seed, p, i)
						return false
					}
				case astopo.P2P:
					peers++
					if peers > 1 || phase != 0 {
						t.Logf("seed %d: extra peer/valley in %v at %d", seed, p, i)
						return false
					}
					phase = 1
				case astopo.P2C: // descending
					phase = 1
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Reachability is monotone: excluding more ASes never increases it.
func TestReachabilityMonotoneInExclusions(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomTopology(rng)
		g.Freeze()
		all := g.ASes()
		origin := all[rng.Intn(len(all))]
		oi, _ := g.Index(origin)
		sim := New(g)
		mask := make([]bool, g.NumASes())
		prev := g.NumASes()
		for step := 0; step < 4; step++ {
			n, err := sim.ReachabilityCount(Config{Origin: origin, Exclude: append([]bool(nil), mask...)})
			if err != nil {
				return false
			}
			if n > prev {
				t.Logf("seed %d step %d: reach grew %d -> %d", seed, step, prev, n)
				return false
			}
			prev = n
			// grow the mask
			for i := range mask {
				if i != oi && rng.Intn(6) == 0 {
					mask[i] = true
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// An origin export filter is the same as removing the origin's links to
// the filtered neighbors: a route's AS path never contains its origin
// twice, so an origin-incident link can only be a first hop. The identity
// holds for a fixed exclusion mask, which is why the mask here is chosen
// once by ASN and mapped into both graphs. core's kind masks derive from
// the origin's providers and would move if provider links were dropped;
// the sensitivity sweep drops only peers, so its mask stays fixed.
func TestExportFilterMatchesLinkRemoval(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomTopology(rng)
		g.Freeze()
		all := g.ASes()
		origin := all[rng.Intn(len(all))]
		oi, _ := g.Index(origin)
		var allow []astopo.ASN
		cut := make(map[astopo.ASN]bool)
		for _, pick := range []func(int) []int32{g.ProvidersOf, g.CustomersOf, g.PeersOf} {
			for _, v := range pick(oi) {
				if a := g.ASNAt(int(v)); rng.Intn(2) == 0 {
					cut[a] = true
				} else {
					allow = append(allow, a)
				}
			}
		}
		var links []astopo.Link
		for _, l := range g.Links() {
			if (l.A == origin && cut[l.B]) || (l.B == origin && cut[l.A]) {
				continue
			}
			links = append(links, l)
		}
		h := astopo.FromLinks(links)
		h.Freeze()
		var excluded map[astopo.ASN]bool
		if rng.Intn(2) == 1 {
			excluded = make(map[astopo.ASN]bool)
			for _, a := range all {
				if a != origin && rng.Intn(5) == 0 {
					excluded[a] = true
				}
			}
		}
		maskFor := func(gr *astopo.Graph) []bool {
			if excluded == nil {
				return nil
			}
			mask := make([]bool, gr.NumASes())
			for i := range mask {
				mask[i] = excluded[gr.ASNAt(i)]
			}
			return mask
		}

		filtered := Config{Origin: origin, Policy: NewPolicy(g, allow), Exclude: maskFor(g)}
		fsim := New(g)
		n, err := fsim.ReachabilityCount(filtered)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		fres, err := fsim.Run(filtered)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if _, ok := h.Index(origin); !ok {
			// Every link of the origin was cut: nothing may be reached.
			if n != 0 {
				t.Logf("seed %d: origin cut off entirely, filter reaches %d", seed, n)
				return false
			}
			return true
		}
		rebuilt := Config{Origin: origin, Exclude: maskFor(h)}
		hsim := New(h)
		want, err := hsim.ReachabilityCount(rebuilt)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if n != want {
			t.Logf("seed %d: filter reaches %d, rebuild %d", seed, n, want)
			return false
		}
		hres, err := hsim.Run(rebuilt)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for i, a := range all {
			j, ok := h.Index(a)
			if !ok {
				if fres.Class[i] != ClassNone {
					t.Logf("seed %d: AS%d left the rebuild but holds a %v route under the filter", seed, a, fres.Class[i])
					return false
				}
				continue
			}
			if fres.Class[i] != hres.Class[j] || fres.Dist[i] != hres.Dist[j] {
				t.Logf("seed %d: AS%d filter %v/%d, rebuild %v/%d",
					seed, a, fres.Class[i], fres.Dist[i], hres.Class[j], hres.Dist[j])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
