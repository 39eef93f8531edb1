package bgpsim

import (
	"context"
	"fmt"
	"math/bits"
	"sort"

	"flatnet/internal/astopo"
)

// The tied-best next hops recorded by a propagation form a DAG: every
// next-hop edge decreases the best path length by exactly one, so no cycles
// are possible. This file derives the paper's path-level quantities from
// that DAG: best-path counts, reliance (§7.1), and membership tests for
// externally observed paths (Appendix A).

// PathCounts returns, for every AS, the number of tied-best paths from it to
// the origin, as float64 (counts can exceed uint64 range on dense graphs;
// only ratios are consumed downstream). ASes without routes get 0; the
// origin gets 1.
func (r *Result) PathCounts() ([]float64, error) {
	if !r.tracked() {
		return nil, fmt.Errorf("bgpsim: PathCounts requires TrackNextHops")
	}
	n := len(r.Class)
	counts := make([]float64, n)
	counts[r.Origin] = 1
	// Process in increasing best length: a node's count depends only on
	// nodes one hop closer to the origin.
	for _, v := range r.byDistance(false) {
		if v == r.Origin {
			continue
		}
		var c float64
		for _, u := range r.NextHops(v) {
			c += counts[u]
		}
		counts[v] = c
	}
	return counts, nil
}

// Reliance computes rely(o, a) for every AS a: the sum over destinations t
// of the fraction of t's tied-best paths toward the origin o in which a
// appears (§7.1). It equals the expected number of reachable ASes whose
// uniformly random tied-best path visits a. The origin's entry equals the
// number of ASes with routes (every best path terminates there), and every
// reachable AS relies on itself with weight ≥ 1.
func (r *Result) Reliance() ([]float64, error) {
	counts, err := r.PathCounts()
	if err != nil {
		return nil, err
	}
	n := len(r.Class)
	visits := make([]float64, n)
	// Seed one unit of probability mass at every AS holding a route
	// (each destination contributes its own path distribution), then
	// push mass toward the origin in decreasing-length order, splitting
	// at each node proportionally to downstream path counts.
	for i := 0; i < n; i++ {
		if r.Class[i] != ClassNone && int32(i) != r.Origin {
			visits[i] += 1
		}
	}
	for _, v := range r.byDistance(true) {
		if v == r.Origin || visits[v] == 0 {
			continue
		}
		var total float64
		for _, u := range r.NextHops(v) {
			total += counts[u]
		}
		if total == 0 {
			continue
		}
		m := visits[v]
		for _, u := range r.NextHops(v) {
			visits[u] += m * counts[u] / total
		}
	}
	return visits, nil
}

// RelianceCtx runs cfg with next-hop tracking and returns what
// Result.Reliance would — bit for bit — without building the Result: class,
// lengths and the next-hop arena are read in place and the path counts,
// visit masses and distance orders live in the Simulator's scratch, so a
// steady-state call allocates nothing and costs what the origin reaches
// plus O(n/64). It also returns the route holders — the only entries of
// the dense reliance slice that can be nonzero — in ascending index order.
// Both slices alias that scratch and are valid only until the next
// propagation on this Simulator. Cancellation is as in
// ReachabilityCountCtx.
func (s *Simulator) RelianceCtx(ctx context.Context, cfg Config) (reliance []float64, holders []int32, err error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	s.ctx = ctx
	defer func() { s.ctx = nil }()
	seeds, err := s.prepare(cfg)
	if err != nil {
		return nil, nil, err
	}
	if !s.propagate(seeds, cfg.Exclude, cfg.Locking, true, cfg.BreakTies) {
		return nil, nil, s.ctx.Err()
	}
	s.ensureRelianceScratch()
	origin, csr, dist := seeds[0].idx, s.csr(), s.dist
	counts, visits := s.counts, s.reach
	// A node's path count reads only nodes one hop closer, so any
	// ascending-length order gives PathCounts' exact sums.
	order := s.orderByDistance()
	pathCountsCSR(csr, s.class, dist, order, counts)
	// One unit of mass at every route holder but the origin, after
	// clearing the previous call's holders (visits is zero elsewhere). The
	// push toward the origin adds into visits[u] from every v one hop
	// further out, so its float sums depend on the order within a length:
	// feed sort.Slice (unstable) the same ascending-index sequence and
	// comparison as Result.byDistance(true) to get the same order.
	for _, v := range s.holders {
		visits[v] = 0
	}
	holders = s.holders[:0]
	for w, word := range s.touched {
		for ; word != 0; word &= word - 1 {
			if i := int32(w<<6 | bits.TrailingZeros64(word)); s.class[i] != ClassNone {
				visits[i] = 1
				holders = append(holders, i)
			}
		}
	}
	s.holders = holders
	visits[origin] = 0
	order = append(order[:0], holders...)
	sort.Slice(order, func(i, j int) bool { return dist[order[i]] > dist[order[j]] })
	for _, v := range order {
		if v == origin || visits[v] == 0 {
			continue
		}
		hops := csr.at(v)
		var total float64
		for _, u := range hops {
			total += counts[u]
		}
		if total == 0 {
			continue
		}
		m := visits[v]
		for _, u := range hops {
			visits[u] += m * counts[u] / total
		}
	}
	return visits, holders, nil
}

// byDistance returns the dense indexes of route-holding ASes ordered by
// best path length, descending when desc is true.
func (r *Result) byDistance(desc bool) []int32 {
	order := make([]int32, 0, len(r.Class))
	for i, c := range r.Class {
		if c != ClassNone {
			order = append(order, int32(i))
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if desc {
			return r.Dist[order[i]] > r.Dist[order[j]]
		}
		return r.Dist[order[i]] < r.Dist[order[j]]
	})
	return order
}

// ContainsPath reports whether the given AS-level path (destination first,
// origin last) is one of the tied-best paths of its first element. Used to
// validate simulated paths against traceroute-observed paths (Appendix A).
func (r *Result) ContainsPath(path []astopo.ASN) (bool, error) {
	if !r.tracked() {
		return false, fmt.Errorf("bgpsim: ContainsPath requires TrackNextHops")
	}
	if len(path) < 2 {
		return false, fmt.Errorf("bgpsim: path must have at least two ASes")
	}
	last, ok := r.Graph.Index(path[len(path)-1])
	if !ok || int32(last) != r.Origin {
		return false, nil
	}
	cur, ok := r.Graph.Index(path[0])
	if !ok {
		return false, nil
	}
	for _, next := range path[1:] {
		ni, ok := r.Graph.Index(next)
		if !ok {
			return false, nil
		}
		found := false
		for _, u := range r.NextHops(int32(cur)) {
			if u == int32(ni) {
				found = true
				break
			}
		}
		if !found {
			return false, nil
		}
		cur = ni
	}
	return true, nil
}

// AllBestPaths enumerates the tied-best paths from t to the origin
// (destination first, origin last), in lexicographic next-hop order,
// stopping after limit paths (limit must be positive; tied-path counts can
// grow exponentially on dense graphs — check PathCounts first).
func (r *Result) AllBestPaths(t astopo.ASN, limit int) ([][]astopo.ASN, error) {
	if !r.tracked() {
		return nil, fmt.Errorf("bgpsim: AllBestPaths requires TrackNextHops")
	}
	if limit <= 0 {
		return nil, fmt.Errorf("bgpsim: AllBestPaths limit must be positive")
	}
	ti, ok := r.Graph.Index(t)
	if !ok || r.Class[ti] == ClassNone {
		return nil, nil
	}
	var out [][]astopo.ASN
	var walk func(cur int32, prefix []astopo.ASN)
	walk = func(cur int32, prefix []astopo.ASN) {
		if len(out) >= limit {
			return
		}
		prefix = append(prefix, r.Graph.ASNAt(int(cur)))
		if cur == r.Origin {
			out = append(out, append([]astopo.ASN(nil), prefix...))
			return
		}
		hops := append([]int32(nil), r.NextHops(cur)...)
		sort.Slice(hops, func(i, j int) bool {
			return r.Graph.ASNAt(int(hops[i])) < r.Graph.ASNAt(int(hops[j]))
		})
		for _, h := range hops {
			walk(h, prefix)
		}
	}
	if int32(ti) == r.Origin {
		return [][]astopo.ASN{{t}}, nil
	}
	walk(int32(ti), nil)
	return out, nil
}

// SampleBestPath returns one tied-best path from t to the origin, choosing
// the lexicographically smallest next hop at every step (deterministic).
// Returns nil if t holds no route.
func (r *Result) SampleBestPath(t astopo.ASN) []astopo.ASN {
	if !r.tracked() {
		return nil
	}
	ti, ok := r.Graph.Index(t)
	if !ok || r.Class[ti] == ClassNone {
		return nil
	}
	path := []astopo.ASN{t}
	cur := int32(ti)
	for cur != r.Origin {
		hops := r.NextHops(cur)
		if len(hops) == 0 {
			return nil
		}
		best := hops[0]
		for _, h := range hops[1:] {
			if r.Graph.ASNAt(int(h)) < r.Graph.ASNAt(int(best)) {
				best = h
			}
		}
		cur = best
		path = append(path, r.Graph.ASNAt(int(cur)))
	}
	return path
}

// BuildExclude returns a dense exclusion mask covering the union of the
// given AS sets, for use as Config.Exclude.
func BuildExclude(g *astopo.Graph, sets ...astopo.ASSet) []bool {
	g.Freeze()
	mask := make([]bool, g.NumASes())
	for _, s := range sets {
		for a := range s {
			if i, ok := g.Index(a); ok {
				mask[i] = true
			}
		}
	}
	return mask
}

// BuildLocking returns a dense peer-locking mask for the given ASNs.
func BuildLocking(g *astopo.Graph, asns []astopo.ASN) []bool {
	g.Freeze()
	mask := make([]bool, g.NumASes())
	for _, a := range asns {
		if i, ok := g.Index(a); ok {
			mask[i] = true
		}
	}
	return mask
}
