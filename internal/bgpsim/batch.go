package bgpsim

import (
	"context"
	"fmt"
	"math/bits"

	"flatnet/internal/astopo"
)

// BatchLanes is the number of origins one batch propagation carries: one
// bit lane per origin in a uint64 word.
const BatchLanes = 64

// BatchReach propagates up to BatchLanes origins at once and returns their
// reachability counts (Counts) or the ASes each leaves without a route
// (UnreachedCtx). It exploits the fact that reachability *membership*
// under the Gao–Rexford model does not depend on path lengths, only on the
// route-holding sets of the three propagation stages:
//
//	stage A  customer routes: the upward closure of the origin over
//	         customer→provider edges;
//	stage B  peer routes: one p2p hop from any stage-A holder (or the
//	         origin), landing only on ASes with no customer route;
//	stage C  provider routes: the downward closure of stages A∪B over
//	         provider→customer edges.
//
// Each set is plain monotone set-propagation, so 64 origins ride in one
// word: set[v] bit L means "v holds this stage's route toward origin L".
// Exclusion masks become per-node "allowed" words composed from a
// lane-uniform base mask (the Tier-1/Tier-2 sets, identical for every
// lane) plus sparse per-lane overrides: each origin's own transit
// providers are cleared in that origin's lane, and the origin itself is
// re-allowed in its own lane even when the base mask covers it (a Tier-1
// origin is never excluded from its own propagation) — the bit-lane form
// of core's per-origin scratch overlay.
//
// The engine covers exactly the configurations the all-AS sweeps use:
// plain reachability with an exclusion mask. Policies, leaks, locking,
// and tie-breaking need distances and per-route state, and stay on the
// scalar Simulator; callers fall back to it when those features apply.
//
// A BatchReach is not safe for concurrent use; create one per goroutine
// (they share the frozen graph safely). All buffers are high-water-reused,
// so steady-state calls allocate nothing.
//
// The engine is active-set based: every node a call gives a route is
// recorded in a touched list, and the per-call bookkeeping passes (stage-B
// and stage-C seeding, the final count, which also resets what it counts)
// walk only that list instead of all n nodes. Profiling the full-scale
// sweep showed those O(n) passes — not edge relaxation — were ~80% of the
// runtime; with masked kinds the average block reaches a fraction of the
// graph, so the bookkeeping costs O(reached) per block. For the same
// reason the composed allowed words are kept across calls: while the
// caller passes the same base mask (compared by backing-array identity),
// each call only un-applies the previous call's sparse per-lane overrides
// instead of recomposing all n words.
//
// All of a node's per-call state is one 32-byte reachNode, so an edge
// check and a reset each touch one cache line. Words only ever gain bits,
// so a node is on the touched list exactly when one of its three route
// words is nonzero: the word test doubles as the membership test, and
// between calls every route word is zero.
type BatchReach struct {
	g *astopo.Graph
	n int

	// ctx, when non-nil, aborts an in-flight Counts between stages (set by
	// CountsCtx, nil otherwise).
	ctx context.Context

	nodes []reachNode

	queue []int32  // shared worklist for the stage A/C fixed points
	inq   []uint64 // worklist membership bitset, cleared on pop

	touched []int32 // this call's nodes with a route, in first-touch order

	// allowed-word reuse across calls: basePtr/baseLen identify the base
	// mask the allowed words were composed from, overrides lists the nodes
	// whose words the last call's per-lane origin/provider edits diverged.
	basePtr   *bool
	baseLen   int
	overrides []int32
}

// reachNode is one AS's lane words for the current call.
type reachNode struct {
	allowed uint64 // lanes that may hold a route here
	up      uint64 // origin ∪ customer-route holders (stage A)
	peer    uint64 // peer-route holders (stage B)
	down    uint64 // provider-route holders (stage C)
}

// countPlanes is the depth of the vertical counter behind the final count:
// plane k holds bit k of every lane's running count, so it absorbs
// 1<<countPlanes - 1 words before a lane could overflow and is flushed
// into the output that often.
const countPlanes = 15

// NewBatchReach returns a batch engine for g. The graph is frozen by the
// call and must not be mutated afterwards.
func NewBatchReach(g *astopo.Graph) *BatchReach {
	g.Freeze()
	n := g.NumASes()
	return &BatchReach{
		g:       g,
		n:       n,
		nodes:   make([]reachNode, n),
		inq:     make([]uint64, (n+63)/64),
		baseLen: -1, // no base composed yet (distinct from a nil base)
	}
}

// Counts computes, for every origin in origins (dense graph indexes, at
// most BatchLanes of them), the number of other ASes that receive its
// announcement, writing the counts to out[0:len(origins)].
//
// base is the lane-uniform exclusion mask (nil excludes nothing); it must
// not mask differently per origin. Each origin is always re-allowed in its
// own lane regardless of base. When maskProviders is set, each origin's
// transit providers are additionally excluded in that origin's lane —
// together these reproduce core's Mask(o, kind) semantics for every kind.
//
// The result for each lane is bit-for-bit identical to the scalar
// Simulator.ReachabilityCount over the equivalent per-origin mask.
func (b *BatchReach) Counts(origins []int32, base []bool, maskProviders bool, out []int) error {
	if len(out) < len(origins) {
		return fmt.Errorf("bgpsim: out has %d entries for %d origins", len(out), len(origins))
	}
	if err := b.propagate(origins, base, maskProviders); err != nil {
		return err
	}
	b.count(len(origins), out)
	return nil
}

// UnreachedCtx propagates origins as Counts does, then appends to
// out[lane], for each origin's lane, the dense index of every AS the lane
// allows that receives no route, in index order. The origin always holds
// its own route, so it is never listed. The propagation is aborted between
// stages once ctx is done, returning ctx.Err().
func (b *BatchReach) UnreachedCtx(ctx context.Context, origins []int32, base []bool, maskProviders bool, out [][]int32) error {
	if len(out) < len(origins) {
		return fmt.Errorf("bgpsim: out has %d lists for %d origins", len(out), len(origins))
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	b.ctx = ctx
	err := b.propagate(origins, base, maskProviders)
	b.ctx = nil
	if err != nil || len(origins) == 0 {
		return err
	}
	lanes := ^uint64(0) >> (BatchLanes - len(origins))
	for v := range b.nodes {
		nd := &b.nodes[v]
		for miss := nd.allowed &^ (nd.up | nd.peer | nd.down) & lanes; miss != 0; miss &= miss - 1 {
			lane := bits.TrailingZeros64(miss)
			out[lane] = append(out[lane], int32(v))
		}
	}
	b.clear(b.touched)
	return nil
}

// propagate runs the three stages for origins and leaves every AS's route
// words set, with the ASes holding a route on b.touched; count or clear
// reads them and zeroes them again. A call that fails or is canceled
// leaves the words zeroed.
func (b *BatchReach) propagate(origins []int32, base []bool, maskProviders bool) error {
	g, n := b.g, b.n
	if len(origins) == 0 {
		return nil
	}
	if len(origins) > BatchLanes {
		return fmt.Errorf("bgpsim: %d origins exceed the %d-lane batch width", len(origins), BatchLanes)
	}
	if base != nil && len(base) != n {
		return fmt.Errorf("bgpsim: base mask has %d entries, graph has %d ASes", len(base), n)
	}

	// Compose the allowed words: lane-uniform base, then per-lane
	// overrides for each origin. While the caller keeps passing the same
	// base (identified by its backing array — sweeps reuse one mask slice
	// per kind), the lane-uniform part survives from the previous call and
	// only that call's sparse overrides are un-applied; the base is
	// recomposed in full only when it changes.
	nodes := b.nodes
	sameBase := base == nil && b.baseLen == 0 ||
		base != nil && len(base) > 0 && b.basePtr == &base[0] && b.baseLen == len(base)
	if sameBase {
		for _, i := range b.overrides {
			if base != nil && base[i] {
				nodes[i].allowed = 0
			} else {
				nodes[i].allowed = ^uint64(0)
			}
		}
	} else {
		if base == nil {
			for i := range nodes {
				nodes[i].allowed = ^uint64(0)
			}
			b.basePtr, b.baseLen = nil, 0
		} else {
			for i, m := range base {
				if m {
					nodes[i].allowed = 0
				} else {
					nodes[i].allowed = ^uint64(0)
				}
			}
			b.basePtr, b.baseLen = &base[0], len(base)
		}
	}
	for _, o := range origins {
		if o < 0 || int(o) >= n {
			b.overrides = b.overrides[:0]
			return fmt.Errorf("bgpsim: origin index %d out of range [0,%d)", o, n)
		}
	}
	overrides := b.overrides[:0]
	for lane, o := range origins {
		bit := uint64(1) << lane
		nodes[o].allowed |= bit // the origin is never excluded from its own lane
		overrides = append(overrides, o)
		if maskProviders {
			for _, p := range g.ProvidersOf(int(o)) {
				nodes[p].allowed &^= bit
				overrides = append(overrides, p)
			}
		}
	}
	b.overrides = overrides

	// Every route word is zero here: the count below clears each node it
	// reads, and a canceled call clears what it touched before returning.
	touched := b.touched[:0]

	// ---- Stage A: upward closure over customer→provider edges ----
	// The worklist is SPFA-style: a popped node relays its full current
	// word; nodes re-enter when they gain new bits. Words only ever gain
	// bits, so the fixed point is reached after O(set-bit insertions).
	if err := b.canceled(); err != nil {
		b.clear(touched)
		return err
	}
	queue := b.queue[:0]
	inq := b.inq
	for lane, o := range origins {
		nd := &nodes[o]
		if nd.up == 0 {
			touched = append(touched, o)
		}
		nd.up |= uint64(1) << lane
		if inq[o>>6]&(1<<(o&63)) == 0 {
			inq[o>>6] |= 1 << (o & 63)
			queue = append(queue, o)
		}
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		inq[u>>6] &^= 1 << (u & 63)
		w := nodes[u].up
		for _, p := range g.ProvidersOf(int(u)) {
			nd := &nodes[p]
			if add := w & nd.allowed &^ nd.up; add != 0 {
				if nd.up == 0 {
					touched = append(touched, p)
				}
				nd.up |= add
				if inq[p>>6]&(1<<(p&63)) == 0 {
					inq[p>>6] |= 1 << (p & 63)
					queue = append(queue, p)
				}
			}
		}
	}

	// ---- Stage B: one p2p hop, gated on "no customer route yet" ----
	// touched is exactly the nonzero-up set here: scan it, not all n nodes.
	// Every up word is final, so each arrival is gated as it lands.
	if err := b.canceled(); err != nil {
		b.clear(touched)
		return err
	}
	for _, u := range touched {
		w := nodes[u].up
		for _, pe := range g.PeersOf(int(u)) {
			nd := &nodes[pe]
			if add := w & nd.allowed &^ nd.up; add != 0 {
				if nd.up|nd.peer == 0 {
					touched = append(touched, pe)
				}
				nd.peer |= add
			}
		}
	}

	// ---- Stage C: downward closure over provider→customer edges ----
	// Seeds are the up∪peer holders — exactly touched here — that have
	// customers: a stub has no one to relay to, so it gains its down bits
	// and stays on touched for the count, but never enters the worklist.
	// A popped node relays every lane it holds: re-offering its up∪peer
	// lanes is harmless (customers that took them hold them), and a seed
	// that gained provider routes before its turn relays them in the same
	// pass.
	if err := b.canceled(); err != nil {
		b.clear(touched)
		return err
	}
	queue = queue[:0]
	for _, u := range touched {
		if g.HasCustomers(int(u)) {
			inq[u>>6] |= 1 << (u & 63)
			queue = append(queue, u)
		}
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		inq[u>>6] &^= 1 << (u & 63)
		w := nodes[u].up | nodes[u].peer | nodes[u].down
		for _, c := range g.CustomersOf(int(u)) {
			nd := &nodes[c]
			held := nd.up | nd.peer | nd.down
			if add := w & nd.allowed &^ held; add != 0 {
				if held == 0 {
					touched = append(touched, c)
				}
				nd.down |= add
				if g.HasCustomers(int(c)) && inq[c>>6]&(1<<(c&63)) == 0 {
					inq[c>>6] |= 1 << (c & 63)
					queue = append(queue, c)
				}
			}
		}
	}
	b.queue = queue // keep the high-water backing arrays
	b.touched = touched
	return nil
}

// count writes each of the first lanes lanes' route holders, the origin
// excepted, to out, and zeroes the route words propagate left.
//
// A bit-sliced vertical counter: each touched node's route word is added
// to every lane's count at once, as a binary increment rippling through
// the planes, instead of one increment per set bit. Every lane's origin
// bit is set in up[origin]; subtract it at the end rather than carrying a
// separate origin word. Only touched nodes hold bits, and each is cleared
// as it is counted, leaving the engine zeroed for the next call.
func (b *BatchReach) count(lanes int, out []int) {
	nodes, touched := b.nodes, b.touched
	b.touched = touched[:0]
	for i := range out[:lanes] {
		out[i] = 0
	}
	const chunk = 1<<countPlanes - 1
	for rest := touched; len(rest) > 0; {
		part := rest[:min(len(rest), chunk)]
		rest = rest[len(part):]
		var planes [countPlanes]uint64
		for _, v := range part {
			nd := &nodes[v]
			for k, c := 0, nd.up|nd.peer|nd.down; c != 0; k++ {
				p := planes[k]
				planes[k] = p ^ c
				c &= p
			}
			nd.up, nd.peer, nd.down = 0, 0, 0
		}
		for k, p := range planes {
			for ; p != 0; p &= p - 1 {
				out[bits.TrailingZeros64(p)] += 1 << k
			}
		}
	}
	for i := range out[:lanes] {
		out[i]--
	}
}

// clear zeroes the route words of the touched nodes, for a call that
// stops before its count.
func (b *BatchReach) clear(touched []int32) {
	for _, v := range touched {
		nd := &b.nodes[v]
		nd.up, nd.peer, nd.down = 0, 0, 0
	}
	b.touched = touched[:0]
}

// CountsCtx is Counts with cancellation: the batch propagation is aborted
// between stages once ctx is done, returning ctx.Err().
func (b *BatchReach) CountsCtx(ctx context.Context, origins []int32, base []bool, maskProviders bool, out []int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	b.ctx = ctx
	defer func() { b.ctx = nil }()
	return b.Counts(origins, base, maskProviders, out)
}

// canceled returns the in-flight context's error, or nil when no context
// is attached or it is still live.
func (b *BatchReach) canceled() error {
	if b.ctx == nil {
		return nil
	}
	return b.ctx.Err()
}
