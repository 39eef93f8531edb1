package core

import (
	"context"
	"fmt"

	"flatnet/internal/astopo"
	"flatnet/internal/bgpsim"
)

// EvolveDelta describes the topology change between two frozen worlds:
// links that disappeared, links that appeared, and ASes that exist only in
// the new world. It is the core-level view of a timeline growth step —
// package topogen's GrowthDelta flattens to exactly this.
type EvolveDelta struct {
	AddedLinks   []astopo.Link
	RemovedLinks []astopo.Link
	NewASes      []astopo.ASN
}

// EvolveStats reports how much work EvolveCounts actually did.
type EvolveStats struct {
	// Origins is the number of origins in the new world.
	Origins int
	// Dirty is how many origins were re-propagated; Carried is how many
	// kept their previous count untouched. Dirty+Carried == Origins
	// unless FullSweep.
	Dirty   int
	Carried int
	// Scouts counts full scout propagations (one per changed transit
	// link with an unmasked provider); Cones counts the cheap customer-
	// cone walks used for peer links.
	Scouts int
	Cones  int
	// FullSweep is set when the engine fell back to the golden full
	// re-propagation path (dirty region too large, tier sets changed, or
	// the delta did not match the two graphs). The counts are exact
	// either way.
	FullSweep bool
	// Reason explains a FullSweep.
	Reason string
}

// EvolveCounts computes reach(o, kind) for every AS of the next world,
// reusing prevCounts (the same metric on the previous world, as returned
// by ReachabilityAll) for every origin the delta cannot have affected.
//
// The dirty region is bounded per changed link by the shape of valley-free
// paths (up* peer? down*), evaluated under the kind's base exclusion mask
// — weaker than any origin's real mask, so every bound below is a
// conservative superset of the truly affected origins. Removed links are
// bounded on the previous world (only paths that existed can vanish),
// added links on the next:
//
//   - Peer link (a,b): a path crossing a peer edge spends its single peer
//     hop there, so the prefix from the origin to the entry endpoint is a
//     pure uphill (customer→provider) walk. Affected origins lie in the
//     masked customer cone of a or of b — a plain BFS down customer
//     edges, no propagation needed.
//   - Transit link (p→c): crossing upward (c exports to its new provider)
//     again needs a pure uphill prefix into c, and every such origin also
//     reaches p one hop later; crossing downward needs any valley-free
//     path into p. Both are covered by one scout propagation from p:
//     reachability is reversal-symmetric, so the set of origins that can
//     reach p equals the set p's own announcement reaches.
//   - A base-masked endpoint never relays a foreign origin's route, so a
//     link whose relay endpoint is masked needs no bound at all: only the
//     endpoints themselves can be affected, and endpoints are always
//     dirty.
//
// Tier-1 and Tier-2 origins are always dirty (they are unmasked inside
// their own propagation, which the base-masked bounds do not cover), as
// are ASes that only exist in the new world.
//
// When the dirty region exceeds half the graph — always the case for
// Full and ProviderFree, whose base masks exclude nothing, and typically
// the case when a well-connected transit gains a customer — the engine
// falls back to a plain full sweep, which stays the golden path: the
// result is exact, never approximate, in both modes. Incremental wins are
// for link churn (IXP peering flaps, the flat Internet's native motion);
// bulk growth steps that add thousands of ASes re-sweep, correctly.
func EvolveCounts(ctx context.Context, prev, next *Metrics, kind Kind, prevCounts []int, d EvolveDelta) ([]int, EvolveStats, error) {
	if kind < Full || kind > HierarchyFree {
		return nil, EvolveStats{}, fmt.Errorf("core: invalid kind %d", kind)
	}
	pg, ng := prev.ds.Graph, next.ds.Graph
	n := ng.NumASes()
	stats := EvolveStats{Origins: n}
	if len(prevCounts) != pg.NumASes() {
		return nil, EvolveStats{}, fmt.Errorf("core: prevCounts has %d entries, previous world has %d ASes", len(prevCounts), pg.NumASes())
	}

	fullSweep := func(reason string) ([]int, EvolveStats, error) {
		stats.FullSweep = true
		stats.Reason = reason
		stats.Dirty = n
		stats.Carried = 0
		out, err := next.ReachabilityRangeCtx(ctx, kind, 0, n, 0)
		return out, stats, err
	}

	// The base masks are derived from the tier sets; if those changed
	// between worlds the carried counts were computed under a different
	// subgraph and nothing can be reused.
	if !sameSet(prev.ds.Tier1, next.ds.Tier1) || !sameSet(prev.ds.Tier2, next.ds.Tier2) {
		return fullSweep("tier sets changed")
	}
	if kind == Full || kind == ProviderFree {
		// Base mask excludes nothing: a scout from any endpoint floods
		// the connected component, so skip straight to the fallback.
		return fullSweep("kind has no base exclusions")
	}

	dirty := make([]bool, n)
	markASN := func(a astopo.ASN) {
		if i, ok := ng.Index(a); ok {
			dirty[i] = true
		}
	}
	for a := range next.ds.Tier1 {
		markASN(a)
	}
	for a := range next.ds.Tier2 {
		markASN(a)
	}
	for _, a := range d.NewASes {
		i, ok := ng.Index(a)
		if !ok {
			return nil, EvolveStats{}, fmt.Errorf("core: new AS %d not in next world", a)
		}
		dirty[i] = true
	}

	// Bound the changed links. Marks land in next-world dense indexes;
	// bounds computed on the previous world are translated by ASN.
	mark := func(m *Metrics, i int, onPrev bool) {
		if onPrev {
			markASN(m.ds.Graph.ASNAt(i))
		} else {
			dirty[i] = true
		}
	}
	// coneMark walks the masked customer cone of start: every origin with
	// a pure uphill path into start, the only origins that can route
	// across a peer edge at start. The seen/stack scratch is shared across
	// all cone walks of this call (a timeline step bounds thousands of
	// churned peer links): seen is sized once per graph side and cleared
	// sparsely via the visited list instead of reallocated per link.
	var seenPrev, seenNext []bool
	var coneStack, coneVisited []int32
	coneMark := func(m *Metrics, start int, onPrev bool) {
		stats.Cones++
		g := m.ds.Graph
		base := m.baseMask[kind]
		seen := seenNext
		if onPrev {
			if seenPrev == nil {
				seenPrev = make([]bool, pg.NumASes())
			}
			seen = seenPrev
		} else if seen == nil {
			seenNext = make([]bool, n)
			seen = seenNext
		}
		seen[start] = true
		stack := append(coneStack[:0], int32(start))
		visited := append(coneVisited[:0], int32(start))
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			mark(m, int(x), onPrev)
			for _, c := range g.CustomersOf(int(x)) {
				if !seen[c] && !base[c] {
					seen[c] = true
					stack = append(stack, c)
					visited = append(visited, c)
				}
			}
		}
		for _, v := range visited {
			seen[v] = false
		}
		coneStack, coneVisited = stack, visited // keep high-water backing arrays
	}
	// scoutMark runs one masked propagation from start; by reversal
	// symmetry its reach set is exactly the set of origins that can reach
	// start.
	scoutMark := func(m *Metrics, start int, onPrev bool) error {
		stats.Scouts++
		sim := m.pool.Get().(*bgpsim.Simulator)
		defer m.pool.Put(sim)
		res, err := sim.RunCtx(ctx, bgpsim.Config{Origin: m.ds.Graph.ASNAt(start), Exclude: m.baseMask[kind]})
		if err != nil {
			return err
		}
		for i, c := range res.Class {
			if c != bgpsim.ClassNone {
				mark(m, i, onPrev)
			}
		}
		return nil
	}
	boundLink := func(m *Metrics, l astopo.Link, onPrev bool) error {
		g := m.ds.Graph
		// Normalize so pi is the provider side of a transit link.
		pa, pb, rel := l.A, l.B, l.Rel
		if rel == astopo.C2P {
			pa, pb, rel = pb, pa, astopo.P2C
		}
		ai, aok := g.Index(pa)
		bi, bok := g.Index(pb)
		if !aok || !bok {
			if onPrev {
				return fmt.Errorf("core: removed link %d-%d not in previous world", l.A, l.B)
			}
			return fmt.Errorf("core: added link %d-%d not in next world", l.A, l.B)
		}
		markASN(pa)
		markASN(pb)
		base := m.baseMask[kind]
		if rel == astopo.P2C {
			// Only the provider relays foreign routes across a transit
			// link; if it is masked, the endpoints (already dirty) are
			// the whole story.
			if base[ai] {
				return nil
			}
			return scoutMark(m, ai, onPrev)
		}
		if !base[ai] {
			coneMark(m, ai, onPrev)
		}
		if !base[bi] {
			coneMark(m, bi, onPrev)
		}
		return nil
	}
	for _, l := range d.RemovedLinks {
		if err := boundLink(prev, l, true); err != nil {
			return nil, EvolveStats{}, err
		}
	}
	for _, l := range d.AddedLinks {
		if err := boundLink(next, l, false); err != nil {
			return nil, EvolveStats{}, err
		}
	}

	// Partition: carry clean origins, collect dirty ones for recompute.
	out := make([]int, n)
	dirtyASNs := make([]astopo.ASN, 0, 64)
	dirtyIdx := make([]int, 0, 64)
	for i := 0; i < n; i++ {
		a := ng.ASNAt(i)
		if !dirty[i] {
			j, ok := pg.Index(a)
			if !ok {
				// Present in next but not prev and not declared new:
				// the delta is inconsistent with the graphs. Treat as
				// dirty rather than guessing a carried value.
				dirty[i] = true
			} else {
				out[i] = prevCounts[j]
				continue
			}
		}
		dirtyASNs = append(dirtyASNs, a)
		dirtyIdx = append(dirtyIdx, i)
	}
	stats.Dirty = len(dirtyASNs)
	stats.Carried = n - stats.Dirty
	if stats.Dirty*2 > n {
		return fullSweep(fmt.Sprintf("dirty region %d/%d too large", stats.Dirty, n))
	}

	counts, err := next.ReachabilityMany(ctx, dirtyASNs, kind)
	if err != nil {
		return nil, stats, err
	}
	for k, i := range dirtyIdx {
		out[i] = counts[k]
	}
	return out, stats, nil
}

func sameSet(a, b astopo.ASSet) bool {
	if len(a) != len(b) {
		return false
	}
	for x := range a {
		if !b.Has(x) {
			return false
		}
	}
	return true
}
