// Package bgpsim simulates BGP route propagation over an AS-level topology
// under the Gao–Rexford routing model the paper uses (§6.1):
//
//   - valley-free export: an AS exports routes learned from customers (or
//     originated by itself) to everyone, but exports routes learned from
//     peers or providers only to its customers;
//   - preference: customer-learned routes over peer-learned over
//     provider-learned, then shortest AS-path length;
//   - all routes tied for best are kept, without tie-breaking.
//
// One propagation computes, for every AS, the class and length of its best
// routes toward an origin, optionally the full tied-best next-hop DAG, and —
// for route-leak experiments (§8) — whether any tied-best route leads to a
// misconfigured leaker instead of the legitimate origin.
//
// Propagation over a graph with V ASes costs O(reached edges + V/64), after
// a one-time O(V) first run: customer routes spread by a bucketed BFS up
// customer→provider edges, peer routes take a single peer hop from
// customer-route holders, and provider routes spread down provider→customer
// edges in best-length order. A Simulator remembers which ASes a
// propagation touched (one bit each) and resets and scans only those.
package bgpsim

import (
	"context"
	"fmt"
	"math/bits"

	"flatnet/internal/astopo"
)

// Class describes how an AS learned its best routes toward the origin, in
// increasing order of preference.
type Class uint8

const (
	// ClassNone marks an AS with no route (unreachable origin).
	ClassNone Class = iota
	// ClassProvider marks routes learned from a transit provider.
	ClassProvider
	// ClassPeer marks routes learned from a settlement-free peer.
	ClassPeer
	// ClassCustomer marks routes learned from a customer.
	ClassCustomer
	// ClassOrigin marks the origin itself (and, in leak simulations, the
	// leaker's synthetic origination of the leaked route).
	ClassOrigin
)

func (c Class) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassProvider:
		return "provider"
	case ClassPeer:
		return "peer"
	case ClassCustomer:
		return "customer"
	case ClassOrigin:
		return "origin"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Route-source flag bits used by leak simulations.
const (
	// ViaLegit marks routes whose announcement chain starts at the
	// legitimate origin's own announcement.
	ViaLegit uint8 = 1 << 0
	// ViaLeak marks routes whose chain passes through the leaker's
	// re-announcement.
	ViaLeak uint8 = 1 << 1
)

// Policy restricts which of the origin's neighbors receive its announcement.
// A nil *Policy announces to all neighbors.
type Policy struct {
	allowed map[int32]bool
}

// NewPolicy builds a policy allowing announcements only to the given
// neighbor ASNs of the origin. ASNs not present in the graph are ignored.
func NewPolicy(g *astopo.Graph, neighbors []astopo.ASN) *Policy {
	p := &Policy{allowed: make(map[int32]bool, len(neighbors))}
	for _, a := range neighbors {
		if i, ok := g.Index(a); ok {
			p.allowed[int32(i)] = true
		}
	}
	return p
}

func (p *Policy) allows(n int32) bool {
	if p == nil {
		return true
	}
	return p.allowed[n]
}

// Config describes one propagation.
type Config struct {
	// Origin is the AS originating the prefix.
	Origin astopo.ASN
	// Policy restricts the origin's announcement; nil announces to all
	// neighbors.
	Policy *Policy
	// Exclude masks ASes (by dense graph index) that routes may not
	// enter or traverse — the subgraph device behind provider-free,
	// Tier-1-free, and hierarchy-free reachability. May be nil.
	Exclude []bool
	// TrackNextHops records, for every AS, the dense indexes of the
	// neighbors providing its tied-best routes. Required for path and
	// reliance analysis; costs memory proportional to the DAG.
	TrackNextHops bool

	// Leaker, if nonzero, designates a misconfigured AS that re-announces
	// the origin's prefix to all its neighbors (a route leak, §8.1). The
	// leaked announcement carries the leaker's legitimate best path, so
	// it competes with the true routes at the leaker's best length.
	Leaker astopo.ASN
	// Hijack turns the leak into a forged origination (§8.1's "prefix
	// hijacks, which are intentional malicious route leaks"): the leaker
	// announces the prefix as its own, competing at AS-path length zero
	// with no upstream path for loop detection to reject.
	Hijack bool
	// Locking marks ASes (by dense index) deploying peer locking for the
	// origin's prefixes: they accept the prefix only directly from the
	// origin and discard every other announcement of it (the erratum's
	// corrected semantics). May be nil.
	Locking []bool

	// BreakTies keeps only the first tied-best route at every AS instead
	// of all of them. The paper deliberately keeps ties ("a worst case
	// analysis", §8.1); this switch exists for the ablation that
	// quantifies how much that choice matters.
	BreakTies bool
}

// Result holds the outcome of one propagation. Slices are indexed by the
// graph's dense AS indexes.
type Result struct {
	Graph  *astopo.Graph
	Origin int32

	// Class and Dist describe the best routes of each AS; Dist is the
	// AS-path length in inter-AS hops (origin = 0). Dist is -1 where
	// Class is ClassNone.
	Class []Class
	Dist  []int32

	// NextHops is the tied-best next-hop DAG (only when TrackNextHops).
	NextHops [][]int32

	// Flags carries ViaLegit/ViaLeak bits (only for leak simulations).
	Flags []uint8

	// LeakerIdx is the dense index of the leaker, or -1.
	LeakerIdx int32
}

// Reachable counts ASes other than the origin (and leaker, if any) holding
// at least one route.
func (r *Result) Reachable() int {
	n := 0
	for i, c := range r.Class {
		if c == ClassNone || int32(i) == r.Origin || int32(i) == r.LeakerIdx {
			continue
		}
		n++
	}
	return n
}

// ReachableSet returns the ASNs counted by Reachable.
func (r *Result) ReachableSet() []astopo.ASN {
	out := make([]astopo.ASN, 0, len(r.Class))
	for i, c := range r.Class {
		if c == ClassNone || int32(i) == r.Origin || int32(i) == r.LeakerIdx {
			continue
		}
		out = append(out, r.Graph.ASNAt(i))
	}
	return out
}

// Detoured counts ASes with at least one tied-best route via the leak,
// excluding the origin and the leaker themselves.
func (r *Result) Detoured() int {
	if r.Flags == nil {
		return 0
	}
	n := 0
	for i, f := range r.Flags {
		if int32(i) == r.Origin || int32(i) == r.LeakerIdx {
			continue
		}
		if f&ViaLeak != 0 {
			n++
		}
	}
	return n
}

// DetouredWeight sums w[i] over detoured ASes; used for the user-population
// weighting of Fig. 9.
func (r *Result) DetouredWeight(w []float64) float64 {
	if r.Flags == nil {
		return 0
	}
	var s float64
	for i, f := range r.Flags {
		if int32(i) == r.Origin || int32(i) == r.LeakerIdx {
			continue
		}
		if f&ViaLeak != 0 {
			s += w[i]
		}
	}
	return s
}

// Simulator runs propagations over one graph, reusing internal buffers
// across runs. It is not safe for concurrent use; create one Simulator per
// goroutine (they share the frozen graph safely).
type Simulator struct {
	g *astopo.Graph
	n int

	// ctx, when non-nil, cancels in-flight propagations between distance
	// buckets (set by the *Ctx entry points, nil otherwise). An aborted
	// propagation leaves the reusable buffers in a partial state; the next
	// run resets them.
	ctx context.Context

	class  []Class
	dist   []int32
	flags  []uint8
	tent   []int32
	tflags []uint8

	// touched holds one bit per AS, set for every AS whose entries above
	// (or next-hop span) the latest propagation may have written. Every
	// other AS holds the reset state, so the next propagation resets only
	// the set bits, and the scans over classed ASes walk them in ascending
	// index order — the order of a dense scan.
	touched []uint64

	// leakBlocked marks ASes whose BGP loop detection rejects every
	// leaked copy (set by prepare for leak runs, nil otherwise).
	leakBlocked []bool

	buckets [][]int32 // dial queue, indexed by distance

	// Next-hop tracking arena (lazily sized, reused across tracked runs):
	// vias holds each node's tentative next hops while its distance is
	// still contested; settle copies the final list into the flat nhArena
	// and records its span in nhOff/nhLen (CSR layout, see nextHopCSR).
	vias    [][]int32
	nhOff   []int32
	nhLen   []int32
	nhArena []int32

	// Scratch reused by prepare and the leak pre-pass. blocked carries
	// exactly the marks of walk's latest result. reach is RelianceCtx's
	// visit mass, zero outside holders (its latest route holders).
	seeds   []seed
	order   []int32
	distCnt []int32
	counts  []float64
	reach   []float64
	holders []int32
	blocked []bool
	walk    loopWalk

	// RunShared's reusable view Result: the [][]int32 next-hop headers are
	// kept at high water across runs so steady-state tracked propagations
	// allocate nothing.
	shared *Result
	nhView [][]int32
}

// New returns a Simulator for g. The graph is frozen by the call and must
// not be mutated afterwards.
func New(g *astopo.Graph) *Simulator {
	g.Freeze()
	n := g.NumASes()
	s := &Simulator{
		g:       g,
		n:       n,
		class:   make([]Class, n),
		dist:    make([]int32, n),
		flags:   make([]uint8, n),
		tent:    make([]int32, n),
		tflags:  make([]uint8, n),
		touched: make([]uint64, (n+63)/64),
	}
	s.markAll()
	return s
}

// markAll marks every AS touched, so the next propagation resets the whole
// graph: the state of a fresh Simulator, and of one whose arrays a LeakSweep
// has just swapped for others.
func (s *Simulator) markAll() {
	for w := range s.touched {
		s.touched[w] = ^uint64(0)
	}
	if r := s.n % 64; r != 0 {
		s.touched[len(s.touched)-1] = 1<<r - 1
	}
}

// RunCtx is Run with cancellation: the propagation is aborted between
// distance buckets once ctx is done, returning ctx.Err(). The serving layer
// threads per-request deadlines through here.
func (s *Simulator) RunCtx(ctx context.Context, cfg Config) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.ctx = ctx
	defer func() { s.ctx = nil }()
	return s.Run(cfg)
}

// ReachabilityCountCtx is ReachabilityCount with cancellation (see RunCtx).
func (s *Simulator) ReachabilityCountCtx(ctx context.Context, cfg Config) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	s.ctx = ctx
	defer func() { s.ctx = nil }()
	return s.ReachabilityCount(cfg)
}

// Run executes one propagation and returns a Result owning its own state
// (independent of the Simulator's reusable buffers).
func (s *Simulator) Run(cfg Config) (*Result, error) {
	seeds, leakerIdx, err := s.prepare(cfg)
	if err != nil {
		return nil, err
	}
	if seeds == nil {
		// Leak configured but the leaker holds no route: the leak-free
		// state with everything marked legitimate is the outcome.
		base := cfg
		base.Leaker, base.Hijack = 0, false
		res, err := s.Run(base)
		if err != nil {
			return nil, err
		}
		res.LeakerIdx = leakerIdx
		res.Flags = make([]uint8, s.n)
		for i, c := range res.Class {
			if c != ClassNone {
				res.Flags[i] = ViaLegit
			}
		}
		return res, nil
	}

	if !s.propagate(seeds, cfg.Exclude, cfg.Locking, cfg.TrackNextHops, cfg.BreakTies) {
		return nil, s.ctx.Err()
	}
	res := &Result{
		Graph:     s.g,
		Origin:    seeds[0].idx,
		LeakerIdx: leakerIdx,
		Class:     append([]Class(nil), s.class...),
		Dist:      append([]int32(nil), s.dist...),
	}
	if cfg.TrackNextHops {
		res.NextHops = s.csr().materialize()
	}
	if cfg.Leaker != 0 {
		res.Flags = append([]uint8(nil), s.flags...)
	}
	return res, nil
}

// RunShared executes one propagation like Run but returns a Result that
// aliases the Simulator's reusable buffers instead of copying them: Class,
// Dist, and every NextHops span point into the Simulator's arenas and are
// valid only until the next propagation on this Simulator. The [][]int32
// next-hop header slice is kept at high water and reused across calls, so
// steady-state tracked runs add no per-run allocations — the same pooling
// discipline the propagation core applies to its masks. This is the fast
// path for per-destination loops (trace synthesis) that fully consume one
// Result before running the next.
//
// Leak configs need an owned Result (their no-route fallback re-enters Run);
// they are rejected here — use Run.
func (s *Simulator) RunShared(cfg Config) (*Result, error) {
	if cfg.Leaker != 0 {
		return nil, fmt.Errorf("bgpsim: RunShared does not support leak configs")
	}
	seeds, _, err := s.prepare(cfg)
	if err != nil {
		return nil, err
	}
	if !s.propagate(seeds, cfg.Exclude, cfg.Locking, cfg.TrackNextHops, cfg.BreakTies) {
		return nil, s.ctx.Err()
	}
	if s.shared == nil {
		s.shared = &Result{Graph: s.g}
	}
	res := s.shared
	res.Origin = seeds[0].idx
	res.LeakerIdx = -1
	res.Class = s.class
	res.Dist = s.dist
	res.Flags = nil
	res.NextHops = nil
	if cfg.TrackNextHops {
		if cap(s.nhView) < s.n {
			s.nhView = make([][]int32, s.n)
		}
		view := s.nhView[:s.n]
		arena := s.nhArena
		for i := range view {
			if m := s.nhLen[i]; m > 0 {
				o := s.nhOff[i]
				view[i] = arena[o : o+m : o+m]
			} else {
				view[i] = nil
			}
		}
		res.NextHops = view
	}
	return res, nil
}

// ReachabilityCount runs cfg and returns only the number of ASes, excluding
// the origin, that receive a route. It avoids materializing a Result and is
// the fast path for whole-Internet sweeps.
func (s *Simulator) ReachabilityCount(cfg Config) (int, error) {
	seeds, _, err := s.prepare(cfg)
	if err != nil {
		return 0, err
	}
	if seeds == nil {
		return 0, fmt.Errorf("bgpsim: ReachabilityCount does not support leak configs")
	}
	if !s.propagate(seeds, cfg.Exclude, cfg.Locking, false, cfg.BreakTies) {
		return 0, s.ctx.Err()
	}
	n := 0
	for w, word := range s.touched {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			if s.class[i] != ClassNone && int32(i) != seeds[0].idx {
				n++
			}
		}
	}
	return n, nil
}

// prepare validates cfg and builds the propagation seeds (in the
// Simulator's reusable seed buffer, valid until the next prepare). For leak
// configs whose leaker holds no legitimate route it returns
// (nil, leakerIdx, nil).
func (s *Simulator) prepare(cfg Config) ([]seed, int32, error) {
	s.leakBlocked = nil
	oi, ok := s.g.Index(cfg.Origin)
	if !ok {
		return nil, -1, fmt.Errorf("bgpsim: origin AS%d not in graph", cfg.Origin)
	}
	if cfg.Exclude != nil && len(cfg.Exclude) != s.n {
		return nil, -1, fmt.Errorf("bgpsim: Exclude mask has %d entries, graph has %d ASes", len(cfg.Exclude), s.n)
	}
	if cfg.Locking != nil && len(cfg.Locking) != s.n {
		return nil, -1, fmt.Errorf("bgpsim: Locking mask has %d entries, graph has %d ASes", len(cfg.Locking), s.n)
	}
	if cfg.Exclude != nil && cfg.Exclude[oi] {
		return nil, -1, fmt.Errorf("bgpsim: origin AS%d is excluded by the mask", cfg.Origin)
	}

	seeds := append(s.seeds[:0], seed{idx: int32(oi), dist0: 0, flag: ViaLegit, policy: cfg.Policy})
	s.seeds = seeds
	leakerIdx := int32(-1)
	if cfg.Leaker != 0 {
		li, ok := s.g.Index(cfg.Leaker)
		if !ok {
			return nil, -1, fmt.Errorf("bgpsim: leaker AS%d not in graph", cfg.Leaker)
		}
		if cfg.Leaker == cfg.Origin {
			return nil, -1, fmt.Errorf("bgpsim: leaker equals origin AS%d", cfg.Origin)
		}
		if cfg.Exclude != nil && cfg.Exclude[li] {
			return nil, -1, fmt.Errorf("bgpsim: leaker AS%d is excluded by the mask", cfg.Leaker)
		}
		leakerIdx = int32(li)
		if cfg.Hijack {
			// Forged origination: length zero, no upstream path.
			s.seeds = append(seeds, seed{
				idx:       leakerIdx,
				dist0:     0,
				flag:      ViaLeak,
				exportAll: true,
			})
			return s.seeds, leakerIdx, nil
		}
		// The leaked announcement carries the leaker's legitimate best
		// path; find its length with a leak-free pre-pass, tracking
		// next hops so that loop detection (below) can be computed.
		if !s.propagate(seeds, cfg.Exclude, cfg.Locking, true, cfg.BreakTies) {
			return nil, -1, s.ctx.Err()
		}
		if s.class[li] == ClassNone {
			return nil, leakerIdx, nil // nothing to leak
		}
		// BGP loop detection: every copy of the leaked announcement
		// carries the leaker's AS path toward the origin, so any AS
		// that appears on *all* of the leaker's tied-best paths will
		// reject every leaked copy. Mark those ASes so propagation
		// strips the leak flag at them.
		s.ensureLeakScratch()
		pathCountsCSR(s.csr(), s.class, s.dist, s.orderByDistance(), s.counts)
		s.blockLeakLoops(s.csr(), s.counts, leakerIdx)
		s.seeds = append(seeds, seed{
			idx:       leakerIdx,
			dist0:     s.dist[li],
			flag:      ViaLeak,
			exportAll: true,
		})
	}
	return s.seeds, leakerIdx, nil
}

// ensureLeakScratch sizes the path-count scratch the leak pre-pass and
// RelianceCtx share, and RelianceCtx's visit masses.
func (s *Simulator) ensureLeakScratch() {
	if s.counts == nil {
		s.counts = make([]float64, s.n)
		s.reach = make([]float64, s.n)
	}
}

// blockLeakLoops installs the loop-detection mask of a leak by leaker over
// a leak-free pre-pass (its next-hop DAG and path counts): the previous
// leak's marks are cleared from the list that set them, so a trial pays for
// the leaker's ancestry, not for the graph.
func (s *Simulator) blockLeakLoops(csr nextHopCSR, counts []float64, leaker int32) {
	if s.blocked == nil {
		s.blocked = make([]bool, s.n)
	}
	for _, v := range s.walk.blocked {
		s.blocked[v] = false
	}
	for _, v := range s.walk.onAllPaths(csr, counts, leaker) {
		s.blocked[v] = true
	}
	s.leakBlocked = s.blocked
}

// seed is one announcement source in a propagation.
type seed struct {
	idx       int32
	dist0     int32
	flag      uint8
	exportAll bool    // leak: export to every neighbor regardless of class
	policy    *Policy // announcement filter (legitimate origin only)
}
