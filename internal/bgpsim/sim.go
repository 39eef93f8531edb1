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
//
// Simulator.Run returns a leak-free Result, and the Result it returns is
// borrowed: its arrays and next-hop spans are the Simulator's own buffers,
// valid until the next run on that Simulator. Result.Clone is the owned
// copy for callers that keep a Result past that point. Leaks run through a
// LeakSweep (one leaker's full Result from LeakSweep.Run, reduced trials
// from Trial and Trials) or the batched RunLeakJobs driver.
package bgpsim

import (
	"context"
	"fmt"
	"math/bits"
	"slices"

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

	// Hijack applies to a LeakSweep's base config (and so to a LeakJob's):
	// it turns each leak into a forged origination (§8.1's "prefix
	// hijacks, which are intentional malicious route leaks"), where the
	// leaker announces the prefix as its own, competing at AS-path length
	// zero with no upstream path for loop detection to reject. Without it
	// the leaked announcement carries the leaker's legitimate best path
	// and competes at the leaker's best length. Simulator.Run ignores it.
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
//
// A Result from Simulator.Run is a view, not a copy: Class, Dist, Flags and
// the next-hop spans alias the Simulator's buffers and are valid only until
// the next propagation on that Simulator. Clone returns a copy that owns its
// state.
type Result struct {
	Graph  *astopo.Graph
	Origin int32

	// Class and Dist describe the best routes of each AS; Dist is the
	// AS-path length in inter-AS hops (origin = 0). Dist is -1 where
	// Class is ClassNone.
	Class []Class
	Dist  []int32

	// Flags carries ViaLegit/ViaLeak bits (only in a leak's Result, from
	// LeakSweep.Run).
	Flags []uint8

	// LeakerIdx is the dense index of the leaker, or -1.
	LeakerIdx int32

	// nh is the tied-best next-hop DAG; nh.num is nil unless the run set
	// TrackNextHops.
	nh nextHopCSR
}

// NextHops returns the dense indexes of the neighbors providing v's
// tied-best routes: nil for the origin (and a leak's leaker), for an AS
// without a route, and for every AS when the run did not set TrackNextHops. The span aliases the
// Result's next-hop arena and must not be modified.
func (r *Result) NextHops(v int32) []int32 {
	if !r.tracked() || r.nh.num[v] == 0 {
		return nil
	}
	o, m := r.nh.off[v], r.nh.num[v]
	return r.nh.arena[o : o+m : o+m]
}

// tracked reports whether the run recorded the next-hop DAG.
func (r *Result) tracked() bool { return r.nh.num != nil }

// Clone returns a deep copy of r that owns its state, so it stays valid
// across later runs of the Simulator r was borrowed from.
func (r *Result) Clone() *Result {
	c := *r
	c.Class = slices.Clone(r.Class)
	c.Dist = slices.Clone(r.Dist)
	c.Flags = slices.Clone(r.Flags)
	c.nh = r.nh.clone()
	return &c
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
	// leaked copy (set by blockLeakLoops for a LeakSweep's leak runs;
	// prepare clears it).
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

	// Scratch reused by prepare, the LeakSweep pre-pass and RelianceCtx.
	// blocked marks exactly the ASes of blockedAt. counts and reach are
	// RelianceCtx's path counts and visit mass (counts also the pre-pass's),
	// reach zero outside holders (its latest route holders).
	seeds     []seed
	order     []int32
	distCnt   []int32
	counts    []float64
	reach     []float64
	holders   []int32
	blocked   []bool
	blockedAt []int32
	walk      loopWalk

	// res is the view Run returns, repointed at the buffers on every run.
	res Result
}

// New returns a Simulator for g. The graph is frozen by the call and must
// not be mutated afterwards.
func New(g *astopo.Graph) *Simulator {
	g.Freeze()
	n := g.NumASes()
	return &Simulator{
		g:       g,
		n:       n,
		class:   make([]Class, n),
		dist:    make([]int32, n),
		flags:   make([]uint8, n),
		tent:    make([]int32, n),
		tflags:  make([]uint8, n),
		touched: allMarked(n),
	}
}

// allMarked returns a touched bitset with all n ASes marked: the state of
// arrays none of whose entries is known to hold the reset state, so the
// next propagation resets them all.
func allMarked(n int) []uint64 {
	marks := make([]uint64, (n+63)/64)
	for w := range marks {
		marks[w] = ^uint64(0)
	}
	if r := n % 64; r != 0 {
		marks[len(marks)-1] = 1<<r - 1
	}
	return marks
}

// ReachabilityCountCtx is ReachabilityCount with cancellation: the
// propagation is aborted between distance buckets once ctx is done,
// returning ctx.Err().
func (s *Simulator) ReachabilityCountCtx(ctx context.Context, cfg Config) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	s.ctx = ctx
	defer func() { s.ctx = nil }()
	return s.ReachabilityCount(cfg)
}

// Run executes one propagation and returns its outcome as a view of the
// Simulator's buffers, valid until the next propagation on this Simulator
// (see Result); Clone it to keep it longer. A steady-state Run allocates
// nothing, with or without TrackNextHops.
func (s *Simulator) Run(cfg Config) (*Result, error) {
	seeds, err := s.prepare(cfg)
	if err != nil {
		return nil, err
	}
	if !s.propagate(seeds, cfg.Exclude, cfg.Locking, cfg.TrackNextHops, cfg.BreakTies) {
		return nil, s.ctx.Err()
	}
	return s.view(seeds[0].idx, -1, cfg.TrackNextHops), nil
}

// view points the Simulator's reusable Result at the buffers the latest
// propagation filled. A leak's view (leakerIdx >= 0) carries the route
// flags; track says whether the propagation recorded next hops.
func (s *Simulator) view(origin, leakerIdx int32, track bool) *Result {
	r := &s.res
	*r = Result{Graph: s.g, Origin: origin, Class: s.class, Dist: s.dist, LeakerIdx: leakerIdx}
	if track {
		r.nh = s.csr()
	}
	if leakerIdx >= 0 {
		r.Flags = s.flags
	}
	return r
}

// ReachabilityCount runs cfg and returns only the number of ASes, excluding
// the origin, that receive a route. It counts over the ASes the propagation
// touched instead of scanning a whole Result.
func (s *Simulator) ReachabilityCount(cfg Config) (int, error) {
	seeds, err := s.prepare(cfg)
	if err != nil {
		return 0, err
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

// prepare validates cfg and builds the propagation's one seed, the
// origin's announcement (in the Simulator's reusable seed buffer, valid
// until the next prepare). It clears the loop-detection mask a leak run
// installed.
func (s *Simulator) prepare(cfg Config) ([]seed, error) {
	s.leakBlocked = nil
	oi, ok := s.g.Index(cfg.Origin)
	if !ok {
		return nil, fmt.Errorf("bgpsim: origin AS%d not in graph", cfg.Origin)
	}
	if cfg.Exclude != nil && len(cfg.Exclude) != s.n {
		return nil, fmt.Errorf("bgpsim: Exclude mask has %d entries, graph has %d ASes", len(cfg.Exclude), s.n)
	}
	if cfg.Locking != nil && len(cfg.Locking) != s.n {
		return nil, fmt.Errorf("bgpsim: Locking mask has %d entries, graph has %d ASes", len(cfg.Locking), s.n)
	}
	if cfg.Exclude != nil && cfg.Exclude[oi] {
		return nil, fmt.Errorf("bgpsim: origin AS%d is excluded by the mask", cfg.Origin)
	}
	s.seeds = append(s.seeds[:0], seed{idx: int32(oi), dist0: 0, flag: ViaLegit, policy: cfg.Policy})
	return s.seeds, nil
}

// ensureRelianceScratch sizes RelianceCtx's path counts and visit masses.
func (s *Simulator) ensureRelianceScratch() {
	s.ensureCounts()
	if s.reach == nil {
		s.reach = make([]float64, s.n)
	}
}

// ensureCounts sizes the path counts of RelianceCtx and the leak pre-pass.
func (s *Simulator) ensureCounts() {
	if s.counts == nil {
		s.counts = make([]float64, s.n)
	}
}

// blockLeakLoops installs the loop-detection mask of a leak by leaker over
// a leak-free pre-pass (its DAG d, and the leaker's own row r). The mask
// keeps its own list of marks, so the previous leak's are cleared from the
// list that set them — a trial pays for the leaker's ancestry, not for the
// graph — whatever else walked s.walk in between.
func (s *Simulator) blockLeakLoops(d *leakDAG, leaker int32, r prepassRow) {
	if s.blocked == nil {
		s.blocked = make([]bool, s.n)
	}
	for _, v := range s.blockedAt {
		s.blocked[v] = false
	}
	s.blockedAt = append(s.blockedAt[:0], s.walk.onAllPaths(d, leaker, r)...)
	for _, v := range s.blockedAt {
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
