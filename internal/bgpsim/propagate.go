package bgpsim

import (
	"math/bits"
	"slices"
)

// propagate runs the three-stage Gao–Rexford propagation for the given
// seeds. Stage A spreads customer-learned routes up customer→provider
// edges; stage B grants peer-learned routes (one p2p hop from any
// customer-route holder or seed); stage C spreads provider-learned routes
// down provider→customer edges in increasing path-length order. All stages
// use a dial (bucket) queue keyed by path length so that multiple seeds
// with different initial lengths compete correctly.
// It fills the Simulator's class/dist/flags buffers and, when track is set,
// the next-hop arena (both valid until the next propagation). Every buffer
// it touches is owned by the Simulator and reused across runs, so
// steady-state propagations allocate nothing.
//
// Only the ASes marked in s.touched are reset, and every write of class,
// dist, flags or tent marks its AS, so a propagation costs what the origin
// reaches plus one pass over the n/64 touched words per scan. The scans
// walk the marks in ascending index order, as a dense scan would, so the
// next-hop arena and the dial queue fill in the same order either way.
//
// When the Simulator carries a context (the *Ctx entry points), the stages
// poll it between distance buckets; propagate then returns false and the
// buffers are only partially filled. Without a context it always returns
// true.
func (s *Simulator) propagate(seeds []seed, exclude, locking []bool, track, breakTies bool) bool {
	n := s.n
	g := s.g
	class := s.class
	dist := s.dist
	flags := s.flags
	tent := s.tent
	tflags := s.tflags
	touched := s.touched
	if track && s.vias == nil {
		s.vias = make([][]int32, n)
		s.nhOff = make([]int32, n)
		s.nhLen = make([]int32, n)
	}
	vias, nhLen := s.vias, s.nhLen
	// Reset what the previous propagation touched. A node's next-hop span
	// is cleared on untracked runs too, so a later tracked run (and the
	// Result viewing it) never meets a span an earlier one left behind; the
	// vias and tflags of a node are overwritten when it first takes a
	// tentative route, so they need no reset.
	for w, word := range touched {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			class[i] = ClassNone
			dist[i] = -1
			flags[i] = 0
			tent[i] = -1
			if nhLen != nil {
				nhLen[i] = 0
			}
		}
		touched[w] = 0
	}
	if track {
		s.nhArena = s.nhArena[:0]
	}
	mark := func(v int32) { touched[v>>6] |= 1 << (uint32(v) & 63) }

	origin := seeds[0].idx
	for _, sd := range seeds {
		mark(sd.idx)
		class[sd.idx] = ClassOrigin
		dist[sd.idx] = sd.dist0
		flags[sd.idx] |= sd.flag
	}

	// The dial queue keeps its high-water shape across runs: only the
	// inner buckets are truncated, so steady-state runs never reallocate.
	clearBuckets := func() {
		for i := range s.buckets {
			s.buckets[i] = s.buckets[i][:0]
		}
	}
	clearBuckets()

	// accept reports whether `receiver` may install a route announced to
	// it by `sender`. Excluded ASes take no routes; seeds never replace
	// their origination; peer-locking ASes accept the prefix only
	// directly from the legitimate origin.
	accept := func(receiver, sender int32) bool {
		if exclude != nil && exclude[receiver] {
			return false
		}
		if class[receiver] == ClassOrigin {
			return false
		}
		if locking != nil && locking[receiver] && sender != origin {
			return false
		}
		return true
	}

	push := func(node, d int32, f uint8, via int32) {
		if s.leakBlocked != nil && s.leakBlocked[node] {
			f &^= ViaLeak // loop detection drops leaked copies here
			if f == 0 {
				return
			}
		}
		switch {
		case tent[node] == -1 || d < tent[node]:
			mark(node)
			tent[node] = d
			tflags[node] = f
			if track {
				vias[node] = append(vias[node][:0], via)
			}
			for int(d) >= len(s.buckets) {
				s.buckets = append(s.buckets, nil)
			}
			s.buckets[d] = append(s.buckets[d], node)
		case d == tent[node] && !breakTies:
			tflags[node] |= f
			if track {
				vias[node] = append(vias[node], via)
			}
		}
	}

	settle := func(node int32, c Class) {
		class[node] = c
		dist[node] = tent[node]
		flags[node] |= tflags[node]
		if track {
			s.nhOff[node] = int32(len(s.nhArena))
			s.nhLen[node] = int32(len(vias[node]))
			s.nhArena = append(s.nhArena, vias[node]...)
		}
	}

	// ---- Stage A: customer routes ----
	for _, sd := range seeds {
		for _, p := range g.ProvidersOf(int(sd.idx)) {
			if !sd.exportAll && !sd.policy.allows(p) {
				continue
			}
			if !accept(p, sd.idx) {
				continue
			}
			push(p, sd.dist0+1, sd.flag, sd.idx)
		}
	}
	for d := 0; d < len(s.buckets); d++ {
		if s.canceled() {
			return false
		}
		for _, u := range s.buckets[d] {
			if class[u] != ClassNone || tent[u] != int32(d) {
				continue // stale entry or already settled
			}
			settle(u, ClassCustomer)
			for _, p := range g.ProvidersOf(int(u)) {
				if !accept(p, u) {
					continue
				}
				push(p, int32(d)+1, tflags[u], u)
			}
		}
	}

	// ---- Stage B: peer routes ----
	if s.canceled() {
		return false
	}
	// Every node given a tentative route in stage A settled there (each
	// such route sits in the dial queue at its own length), so the nodes
	// still unclassed carry no tentative state into stage B; likewise from
	// stage B into stage C.
	peerContribute := func(pe, d int32, f uint8, via int32) {
		if class[pe] != ClassNone {
			return
		}
		if !accept(pe, via) {
			return
		}
		if s.leakBlocked != nil && s.leakBlocked[pe] {
			f &^= ViaLeak
			if f == 0 {
				return
			}
		}
		switch {
		case tent[pe] == -1 || d < tent[pe]:
			mark(pe)
			tent[pe] = d
			tflags[pe] = f
			if track {
				vias[pe] = append(vias[pe][:0], via)
			}
		case d == tent[pe] && !breakTies:
			tflags[pe] |= f
			if track {
				vias[pe] = append(vias[pe], via)
			}
		}
	}
	for _, sd := range seeds {
		for _, pe := range g.PeersOf(int(sd.idx)) {
			if !sd.exportAll && !sd.policy.allows(pe) {
				continue
			}
			peerContribute(pe, sd.dist0+1, sd.flag, sd.idx)
		}
	}
	// The walks below meet the nodes marked since the walk began or not,
	// depending on their word; either way those hold no route yet and fail
	// the class test.
	for w, word := range touched {
		for ; word != 0; word &= word - 1 {
			u := int32(w<<6 | bits.TrailingZeros64(word))
			if class[u] != ClassCustomer {
				continue
			}
			for _, pe := range g.PeersOf(int(u)) {
				peerContribute(pe, dist[u]+1, flags[u], u)
			}
		}
	}
	for w, word := range touched {
		for ; word != 0; word &= word - 1 {
			i := int32(w<<6 | bits.TrailingZeros64(word))
			if class[i] == ClassNone && tent[i] >= 0 {
				settle(i, ClassPeer)
			}
		}
	}

	// ---- Stage C: provider routes ----
	if s.canceled() {
		return false
	}
	clearBuckets()
	downPush := func(c, d int32, f uint8, via int32) {
		if class[c] != ClassNone {
			return
		}
		if !accept(c, via) {
			return
		}
		push(c, d, f, via)
	}
	for _, sd := range seeds {
		for _, c := range g.CustomersOf(int(sd.idx)) {
			if !sd.exportAll && !sd.policy.allows(c) {
				continue
			}
			downPush(c, sd.dist0+1, sd.flag, sd.idx)
		}
	}
	for w, word := range touched {
		for ; word != 0; word &= word - 1 {
			u := int32(w<<6 | bits.TrailingZeros64(word))
			if class[u] != ClassCustomer && class[u] != ClassPeer {
				continue
			}
			for _, c := range g.CustomersOf(int(u)) {
				downPush(c, dist[u]+1, flags[u], u)
			}
		}
	}
	for d := 0; d < len(s.buckets); d++ {
		if s.canceled() {
			return false
		}
		for _, u := range s.buckets[d] {
			if class[u] != ClassNone || tent[u] != int32(d) {
				continue
			}
			settle(u, ClassProvider)
			for _, c := range g.CustomersOf(int(u)) {
				downPush(c, int32(d)+1, tflags[u], u)
			}
		}
	}
	return true
}

// canceled reports whether the Simulator's in-flight context (if any) is
// done. It is polled between propagation stages and distance buckets:
// cheap enough to keep the hot loops allocation- and branch-lean, frequent
// enough that a deadline aborts a propagation within a fraction of its
// runtime.
func (s *Simulator) canceled() bool {
	return s.ctx != nil && s.ctx.Err() != nil
}

// nextHopCSR is a compact tied-best next-hop DAG in CSR form: node v's next
// hops occupy arena[off[v] : off[v]+num[v]]. Spans are only meaningful for
// nodes settled by the propagation that filled it (num is reset to 0 for
// every node at the start of a tracked run).
type nextHopCSR struct {
	off   []int32
	num   []int32
	arena []int32
}

// at returns v's next-hop span (aliasing the arena; callers must not
// mutate or retain it past the arena's lifetime).
func (c nextHopCSR) at(v int32) []int32 {
	return c.arena[c.off[v] : c.off[v]+c.num[v]]
}

// clone deep-copies the CSR so it survives future propagations of the
// Simulator that built it. The clone of an untracked run's empty CSR is
// empty too.
func (c nextHopCSR) clone() nextHopCSR {
	return nextHopCSR{
		off:   append([]int32(nil), c.off...),
		num:   append([]int32(nil), c.num...),
		arena: append([]int32(nil), c.arena...),
	}
}

// csr returns a view of the Simulator's next-hop arena as filled by the
// latest tracked propagation. The view is invalidated by the next run.
func (s *Simulator) csr() nextHopCSR {
	return nextHopCSR{off: s.nhOff, num: s.nhLen, arena: s.nhArena}
}

// orderByDistance fills and returns s.order with the dense indexes of all
// classed nodes in ascending best-length order, using a counting sort over
// distances (they are small ints bounded by the dial queue's depth), stable
// by index within a distance. Valid until the next call. It walks the
// latest propagation's touched marks, so it costs O(touched + n/64).
func (s *Simulator) orderByDistance() []int32 {
	class, dist := s.class, s.dist
	maxd := int32(0)
	classed := 0
	for w, word := range s.touched {
		for ; word != 0; word &= word - 1 {
			if i := w<<6 | bits.TrailingZeros64(word); class[i] != ClassNone {
				classed++
				maxd = max(maxd, dist[i])
			}
		}
	}
	if cap(s.distCnt) < int(maxd)+2 {
		s.distCnt = make([]int32, maxd+2)
	}
	cnt := s.distCnt[:maxd+2]
	for i := range cnt {
		cnt[i] = 0
	}
	for w, word := range s.touched {
		for ; word != 0; word &= word - 1 {
			if i := w<<6 | bits.TrailingZeros64(word); class[i] != ClassNone {
				cnt[dist[i]+1]++
			}
		}
	}
	for d := int32(1); d < int32(len(cnt)); d++ {
		cnt[d] += cnt[d-1]
	}
	if cap(s.order) < classed {
		s.order = make([]int32, classed)
	}
	order := s.order[:classed]
	for w, word := range s.touched {
		for ; word != 0; word &= word - 1 {
			if i := w<<6 | bits.TrailingZeros64(word); class[i] != ClassNone {
				order[cnt[dist[i]]] = int32(i)
				cnt[dist[i]]++
			}
		}
	}
	s.order = order
	return order
}

// pathCountsCSR sets counts[v], for every v in order, to the number of
// tied-best DAG paths from v to the origin (N(w) in the loop-detection
// derivation). order must hold the classed nodes in ascending best-length
// order; every next-hop edge drops the best length by exactly one, so each
// node only reads counts settled by an earlier distance bucket. Entries of
// routeless nodes keep whatever they held: every reader reaches counts
// through next hops or a routed leaker, never through a routeless node.
func pathCountsCSR(csr nextHopCSR, class []Class, dist []int32, order []int32, counts []float64) {
	for _, v := range order {
		if class[v] == ClassOrigin && dist[v] == 0 {
			counts[v] = 1
			continue
		}
		var c float64
		for _, u := range csr.at(v) {
			c += counts[u]
		}
		counts[v] = c
	}
}

// loopWalk is the scratch of the leak loop-detection walk, shared by the
// scalar and batch leak engines. reach is all-zero between walks; blocked
// holds the latest onAllPaths result.
type loopWalk struct {
	reach   []float64
	seen    []int32
	blocked []int32
}

// ancestors returns the ASes on any tied-best path from the leaker toward
// the origin, leaker first, leaving in w.reach[v] the number of DAG paths
// from the leaker to each (A(v) in the loop-detection derivation) for the
// caller to read and zero. n is the graph's AS count.
//
// Every next-hop edge drops the best length by exactly one, so the ancestry
// is walked a length at a time, each length in descending index — the order
// in which a backward scan of the pre-pass distance order (ascending
// length, index within a length) meets the nodes holding nonzero A. Every
// A(v) is therefore summed in exactly that scan's order.
func (w *loopWalk) ancestors(csr nextHopCSR, n int, leaker int32) []int32 {
	if len(w.reach) < n {
		w.reach = make([]float64, n)
	}
	reach := w.reach
	reach[leaker] = 1
	seen := append(w.seen[:0], leaker)
	for lo := 0; lo < len(seen); {
		level := seen[lo:]
		lo = len(seen)
		slices.Sort(level)
		for i := len(level) - 1; i >= 0; i-- {
			rv := reach[level[i]]
			for _, u := range csr.at(level[i]) {
				if reach[u] == 0 {
					seen = append(seen, u)
				}
				reach[u] += rv
			}
		}
	}
	w.seen = seen
	return seen
}

// onAllPaths returns the ASes appearing on every tied-best path from the
// leaker toward the origin — the set whose BGP loop detection rejects every
// leaked copy. Uses path-count products: with N(w) DAG paths from w to the
// origin (counts, from pathCountsCSR) and A(w) DAG paths from the leaker to
// w, node w lies on all leaker paths iff A(w)·N(w) equals the leaker's
// total path count. Only the leaker's ancestors are visited. The result
// aliases w.blocked and is valid until the next call; csr and counts are
// only read, so callers may share them.
func (w *loopWalk) onAllPaths(csr nextHopCSR, counts []float64, leaker int32) []int32 {
	seen := w.ancestors(csr, len(counts), leaker)
	w.blocked = w.blocked[:0]
	total := counts[leaker]
	for _, v := range seen[1:] {
		if p := w.reach[v] * counts[v]; total != 0 && p > 0 && p >= total*(1-1e-9) {
			w.blocked = append(w.blocked, v)
		}
		w.reach[v] = 0
	}
	w.reach[leaker] = 0
	return w.blocked
}
