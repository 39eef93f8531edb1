package bgpsim

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"flatnet/internal/astopo"
	"flatnet/internal/par"
)

// LeakSweep replays many leakers against one base configuration — the inner
// loop of the paper's §8.1 experiments (thousands of trials per
// origin×scenario). Every leak needs the leak-free state: the pre-pass
// propagation, the tied-best next-hop DAG, and its path counts are all
// invariant in the leaker, yet cost as much as the leak propagation
// itself. A sweep computes them once per
// (origin, policy, exclude, locking) configuration and keeps them in an
// immutable snapshot, so each trial pays only for the per-leaker loop
// detection (one backward pass over the cached DAG) and the leak
// propagation proper. Steady-state Trial calls are allocation-free.
//
// The pre-pass relays: it settles only the origin and the ASes with
// customers, since a stub never exports what it learns and so shapes no
// other AS's route. The one stub row a trial reads, its leaker's, is
// derived from the leaker's neighbors (sweepBase.row). A hijack reads
// nothing of the pre-pass, so a hijack sweep runs none.
//
// A LeakSweep is not safe for concurrent use; Clone shares the snapshot
// with a fresh set of mutable buffers for use from another goroutine.
type LeakSweep struct {
	base *sweepBase
	sim  *Simulator

	// ownsBase marks sweeps created by NewLeakSweep (whose Release
	// recycles the whole sweep); clones share the base and only recycle
	// their simulator.
	ownsBase bool

	live []liveLeaker // TrialsN's lane list, reused across calls

	// sinks is the pre-pass's exclusion mask: the base config's excluded
	// ASes and every stub. stubsOnly marks it as built for a config
	// without an Exclude mask, so the next such pre-pass reuses it.
	sinks     []bool
	stubsOnly bool
}

// sweepBase is the leaker-invariant snapshot: the relay-only leak-free
// propagation outcome and the path counts over its next-hop DAG. Entries
// of the ASes the pre-pass left out (stubs, and every AS of a hijack
// sweep) are not rows: read an AS's row with row. It is immutable after
// construction and shared by all clones of a sweep.
type sweepBase struct {
	g      *astopo.Graph
	cfg    Config // base config
	origin int32
	class  []Class
	dist   []int32
	csr    nextHopCSR
	order  []int32   // classed nodes in ascending best-length order
	counts []float64 // N(w): tied-best DAG paths w -> origin

	// touched marks the entries of class, dist and csr.num the pre-pass
	// wrote; every other entry holds the reset state. The marks travel
	// with the arrays when the next pre-pass takes them back.
	touched []uint64
}

// simPool recycles Simulators across sweeps and clones of the same graph.
// A fresh tracked propagation allocates one small via-slice per settled
// node — by far the dominant allocation count of a sweep's pre-pass — and
// those slices reach a stable high-water shape after one run, so reusing
// simulators makes repeated sweep construction (one per origin×scenario in
// the Figs. 7–10 pipeline) nearly allocation-free. A pooled simulator
// built for a different graph is simply dropped.
var simPool sync.Pool

func getSim(g *astopo.Graph) *Simulator {
	if v := simPool.Get(); v != nil {
		if s := v.(*Simulator); s.g == g {
			return s
		}
	}
	return New(g)
}

func putSim(s *Simulator) {
	s.ctx = nil
	simPool.Put(s)
}

// sweepPool recycles whole sweeps — simulator, pre-pass snapshot arrays,
// and loop-detection scratch — returned by LeakSweep.Release.
var sweepPool sync.Pool

// NewLeakSweep validates base, runs the leak-free pre-pass once, and
// returns a sweep ready to replay leakers against it. The graph is frozen
// by the call. Release the sweep when done to recycle its buffers for the
// next configuration.
func NewLeakSweep(g *astopo.Graph, base Config) (*LeakSweep, error) {
	g.Freeze()
	var sw *LeakSweep
	if v := sweepPool.Get(); v != nil && v.(*LeakSweep).base.g == g {
		sw = v.(*LeakSweep)
	} else {
		sw = &LeakSweep{base: &sweepBase{g: g}, sim: New(g), ownsBase: true}
	}
	if err := sw.prepass(base); err != nil {
		sweepPool.Put(sw)
		return nil, err
	}
	return sw, nil
}

// prepass validates base and, unless it is a hijack, runs its relay-only
// leak-free propagation on the sweep's simulator and installs it as the
// sweep's snapshot.
func (sw *LeakSweep) prepass(base Config) error {
	sim := sw.sim
	seeds, err := sim.prepare(base)
	if err != nil {
		return err
	}
	b := sw.base
	b.cfg = base
	b.origin = seeds[0].idx
	if base.Hijack {
		return nil // a forged origination has no path for a trial to read
	}
	sim.propagate(seeds, sw.sinkMask(base.Exclude), base.Locking, true, base.BreakTies)
	// The snapshot takes the simulator's pre-pass arrays (sim.order among
	// them, once filled) and their touched marks, and hands back its own —
	// the previous configuration's, or fresh ones with every entry marked.
	// The simulator then holds the union of both mark sets: the entries of
	// the arrays it took back, and those of the tent and flags arrays it
	// kept. The next propagation resets all of them before it reads one.
	sim.orderByDistance()
	if b.class == nil {
		b.class, b.dist = make([]Class, sim.n), make([]int32, sim.n)
		b.csr.off, b.csr.num = make([]int32, sim.n), make([]int32, sim.n)
		b.counts = make([]float64, sim.n)
		b.touched = allMarked(sim.n)
	}
	b.class, sim.class = sim.class, b.class
	b.dist, sim.dist = sim.dist, b.dist
	b.csr.off, sim.nhOff = sim.nhOff, b.csr.off
	b.csr.num, sim.nhLen = sim.nhLen, b.csr.num
	b.csr.arena, sim.nhArena = sim.nhArena, b.csr.arena
	b.order, sim.order = sim.order, b.order
	b.touched, sim.touched = sim.touched, b.touched
	for w, marks := range b.touched {
		sim.touched[w] |= marks
	}
	pathCountsCSR(b.csr, b.class, b.dist, b.order, b.counts)
	return nil
}

// sinkMask returns the exclusion mask of a relay-only pre-pass: exclude's
// ASes and every stub. A stub other than the origin never exports the
// routes it learns, so keeping it from taking one changes no other AS's
// class, length, next hops or settle order; the origin is a seed and takes
// no route either way. The mask, rather than a stub test in propagate's
// accept, keeps every other propagation's edge loop as it was: the test
// there made plain tracked runs 10-15 % slower.
func (sw *LeakSweep) sinkMask(exclude []bool) []bool {
	if exclude == nil && sw.stubsOnly {
		return sw.sinks
	}
	g := sw.base.g
	if sw.sinks == nil {
		sw.sinks = make([]bool, g.NumASes())
	}
	for i := range sw.sinks {
		sw.sinks[i] = !g.HasCustomers(i) || exclude != nil && exclude[i]
	}
	sw.stubsOnly = exclude == nil
	return sw.sinks
}

// prepassRow is one AS's outcome in a sweep's leak-free pre-pass: the
// class and length of its best routes, its tied-best next hops, and its
// number of tied-best paths to the origin (N in the loop-detection
// derivation). An AS without a route has class ClassNone and length -1.
type prepassRow struct {
	class Class
	dist  int32
	hops  []int32
	paths float64
}

// row returns AS v's pre-pass row in a leak (not hijack) sweep. The
// origin's and a relaying AS's rows are the snapshot's; a stub's, which the
// relay-only pre-pass leaves out, is derived from its neighbors. The hops
// alias the snapshot or w's scratch, valid until the next row on w.
func (b *sweepBase) row(v int32, w *loopWalk) prepassRow {
	if v != b.origin && !b.g.HasCustomers(int(v)) {
		if b.cfg.Exclude != nil && b.cfg.Exclude[v] {
			return prepassRow{dist: -1}
		}
		if r := b.stubRow(v, b.g.PeersOf(int(v)), ClassPeer, w); r.class != ClassNone {
			return r
		}
		return b.stubRow(v, b.g.ProvidersOf(int(v)), ClassProvider, w)
	}
	if b.class[v] == ClassNone {
		return prepassRow{dist: -1}
	}
	return prepassRow{class: b.class[v], dist: b.dist[v], hops: b.csr.at(v), paths: b.counts[v]}
}

// stubRow settles stub c, as propagate would, on the offers of nbrs in the
// stage that grants class cls: ClassPeer over c's peers, where the origin
// (if its policy announces to c) and every customer-route holder offer;
// then, if none did, ClassProvider over c's providers, where the origin and
// every routed AS offer. A peer-locking stub takes the origin's offer
// alone. The shortest offers tie, in propagate's push order — the
// origin's, then those of customer- and peer-route holders by index, then
// those of provider-route holders in settle order, which their next-hop
// spans' offsets record — and under BreakTies only the first is kept. The
// path count sums the next hops' counts in that order, as pathCountsCSR
// does.
func (b *sweepBase) stubRow(c int32, nbrs []int32, cls Class, w *loopWalk) prepassRow {
	locked := b.cfg.Locking != nil && b.cfg.Locking[c]
	best := int32(-1)
	keys := w.keys[:0] // push rank << 32 | next hop
	for _, u := range nbrs {
		var d int32
		var rank uint64
		switch uc := b.class[u]; {
		case u == b.origin:
			if !b.cfg.Policy.allows(c) {
				continue
			}
			d, rank = 1, 0
		case locked:
			continue
		case uc == ClassCustomer || uc == ClassPeer && cls == ClassProvider:
			d, rank = b.dist[u]+1, 1+uint64(u)
		case uc == ClassProvider && cls == ClassProvider:
			d, rank = b.dist[u]+1, 1+uint64(len(b.class))+uint64(b.csr.off[u])
		default:
			continue
		}
		switch {
		case best == -1 || d < best:
			best = d
			keys = append(keys[:0], rank<<32|uint64(u))
		case d == best:
			keys = append(keys, rank<<32|uint64(u))
		}
	}
	w.keys = keys
	if best == -1 {
		return prepassRow{dist: -1}
	}
	if len(keys) > 1 {
		if b.cfg.BreakTies {
			keys[0] = slices.Min(keys)
			keys = keys[:1]
		} else {
			slices.Sort(keys)
		}
	}
	r := prepassRow{class: cls, dist: best, hops: w.hops[:0]}
	for _, k := range keys {
		u := int32(uint32(k))
		r.hops = append(r.hops, u)
		r.paths += b.counts[u]
	}
	w.hops = r.hops
	return r
}

// liveLeaker is a leaker the batch engine gives a lane: its position in
// the leaker list and its dense index.
type liveLeaker struct{ pos, idx int32 }

// leakerIndex validates leaker against the sweep and returns its dense
// index.
func (b *sweepBase) leakerIndex(leaker astopo.ASN) (int32, error) {
	i, ok := b.g.Index(leaker)
	if !ok {
		return -1, fmt.Errorf("bgpsim: leaker AS%d not in graph", leaker)
	}
	if leaker == b.cfg.Origin {
		return -1, fmt.Errorf("bgpsim: leaker equals origin AS%d", b.cfg.Origin)
	}
	if b.cfg.Exclude != nil && b.cfg.Exclude[i] {
		return -1, fmt.Errorf("bgpsim: leaker AS%d is excluded by the mask", leaker)
	}
	return int32(i), nil
}

// liveLeakers validates every leaker, sets out[i] to leaker i's all-zero
// trial, and appends to live the leakers that can detour anyone, in input
// order. A hijacker always can. A leaker without a route has nothing to
// leak, and a stub whose one neighbor is its provider holds every route
// through that provider, whose loop detection then drops the one leaked
// copy: neither gets a lane, and the zero trial stands.
func (b *sweepBase) liveLeakers(leakers []astopo.ASN, out []LeakTrial, w *loopWalk, live []liveLeaker) ([]liveLeaker, error) {
	g := b.g
	for i, leaker := range leakers {
		li, err := b.leakerIndex(leaker)
		if err != nil {
			return live, err
		}
		out[i] = LeakTrial{Leaker: leaker}
		v := int(li)
		singleHomed := !g.HasCustomers(v) && len(g.PeersOf(v)) == 0 && len(g.ProvidersOf(v)) == 1
		if !b.cfg.Hijack && (singleHomed || b.row(li, w).class == ClassNone) {
			continue
		}
		live = append(live, liveLeaker{pos: int32(i), idx: li})
	}
	return live, nil
}

// checkWeights rejects a user-weight vector that is not one entry per AS.
func (b *sweepBase) checkWeights(weights []float64) error {
	if weights != nil && len(weights) != b.g.NumASes() {
		return fmt.Errorf("bgpsim: weights have %d entries, graph has %d ASes", len(weights), b.g.NumASes())
	}
	return nil
}

// Release returns the sweep's buffers to per-graph pools for reuse by the
// next NewLeakSweep or Clone over the same graph. Call it only once the
// sweep AND every clone is done — the recycled arrays back future sweeps,
// so any later use corrupts them. Releasing is optional (an unreleased
// sweep is ordinary garbage) and a clone's Release recycles only its
// private simulator.
func (sw *LeakSweep) Release() {
	if !sw.ownsBase {
		if sw.sim != nil {
			putSim(sw.sim)
			sw.sim = nil
		}
		return
	}
	sw.sim.ctx = nil
	sweepPool.Put(sw)
}

// Clone returns a sweep sharing this one's immutable pre-pass snapshot but
// owning fresh propagation and scratch buffers, for use from another
// goroutine.
func (sw *LeakSweep) Clone() *LeakSweep {
	return &LeakSweep{base: sw.base, sim: getSim(sw.base.g)}
}

// runLeaker validates the leaker against the cached pre-pass, installs the
// per-leaker loop-detection mask, and runs the leak propagation into the
// sweep's simulator buffers. propagated is false when the leaker holds no
// legitimate route (the leak is a no-op and no propagation ran); hijacks
// always propagate.
func (sw *LeakSweep) runLeaker(leaker astopo.ASN, track bool) (li int32, propagated bool, err error) {
	b := sw.base
	cfg := b.cfg
	if li, err = b.leakerIndex(leaker); err != nil {
		return -1, false, err
	}
	sim := sw.sim
	sim.leakBlocked = nil
	seeds := append(sim.seeds[:0], seed{idx: b.origin, dist0: 0, flag: ViaLegit, policy: cfg.Policy})
	if cfg.Hijack {
		// Forged origination: length zero, no upstream path, no loop
		// detection — the pre-pass plays no role.
		seeds = append(seeds, seed{idx: li, dist0: 0, flag: ViaLeak, exportAll: true})
		sim.seeds = seeds
		if !sim.propagate(seeds, cfg.Exclude, cfg.Locking, track, cfg.BreakTies) {
			return li, false, sim.ctx.Err()
		}
		return li, true, nil
	}
	r := b.row(li, &sim.walk)
	if r.class == ClassNone {
		sim.seeds = seeds
		return li, false, nil // nothing to leak
	}
	sim.blockLeakLoops(b.csr, b.counts, li, r)
	seeds = append(seeds, seed{idx: li, dist0: r.dist, flag: ViaLeak, exportAll: true})
	sim.seeds = seeds
	if !sim.propagate(seeds, cfg.Exclude, cfg.Locking, track, cfg.BreakTies) {
		return li, false, sim.ctx.Err()
	}
	return li, true, nil
}

// TrialCtx is Trial with cancellation: the leak propagation is aborted
// between distance buckets once ctx is done, returning ctx.Err().
func (sw *LeakSweep) TrialCtx(ctx context.Context, leaker astopo.ASN, weights []float64) (LeakTrial, error) {
	if err := ctx.Err(); err != nil {
		return LeakTrial{}, err
	}
	sw.sim.ctx = ctx
	defer func() { sw.sim.ctx = nil }()
	return sw.Trial(leaker, weights)
}

// Trials replays every leaker in parallel against the sweep's shared
// pre-pass snapshot and returns one LeakTrial per leaker in input order.
// weights may be nil. Cancellation stops the sweep between trials (and
// mid-propagation within a trial).
//
// Every list routes through the word-parallel BatchLeak engine, BatchLanes
// leakers per propagation, with the 64-lane blocks spread over the
// workers: even one leaker costs less as a partial block than as a scalar
// trial. The blocks are cut over the leakers that can leak (see
// liveLeakers); the rest keep their all-zero trial. Only BreakTies configs
// (whose tie order is inherently per-lane, see BatchLeak) replay leakers
// one at a time, one sweep clone per extra worker. Both paths produce
// identical trials.
func (sw *LeakSweep) Trials(ctx context.Context, leakers []astopo.ASN, weights []float64) ([]LeakTrial, error) {
	return sw.TrialsN(ctx, leakers, weights, 0)
}

// TrialsN is Trials with a worker bound: at most `workers` goroutines
// replay the leaker blocks (0 means GOMAXPROCS; 1 runs everything on the
// calling goroutine). Trials are per-leaker independent and deterministic,
// so any partition of the leaker list replayed with any worker count
// concatenates to exactly Trials' output — the property cluster leak
// shards rely on.
func (sw *LeakSweep) TrialsN(ctx context.Context, leakers []astopo.ASN, weights []float64, workers int) ([]LeakTrial, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([]LeakTrial, len(leakers))
	b := sw.base
	var err error
	if !b.cfg.BreakTies {
		if err := b.checkWeights(weights); err != nil {
			return nil, err
		}
		sw.live, err = b.liveLeakers(leakers, out, &sw.sim.walk, sw.live[:0])
		if err != nil {
			return nil, err
		}
		live := sw.live
		nBlocks := (len(live) + BatchLanes - 1) / BatchLanes
		workers = min(workers, nBlocks)
		engines := make([]*BatchLeak, workers)
		err = par.ForCtx(ctx, workers, nBlocks, func(w int) func(i int) error {
			bl := getBatchLeak(b.g)
			bl.ctx = ctx
			engines[w] = bl
			return func(i int) error {
				lo := i * BatchLanes
				return bl.block(b, live[lo:min(lo+BatchLanes, len(live))], weights, out)
			}
		})
		for _, bl := range engines {
			if bl != nil {
				bl.ctx = nil
				putBatchLeak(bl)
			}
		}
	} else {
		clones := make([]*LeakSweep, workers)
		err = par.ForCtx(ctx, workers, len(leakers), func(w int) func(i int) error {
			s := sw
			if w > 0 {
				s = sw.Clone()
				clones[w] = s
			}
			return func(i int) error {
				tr, err := s.TrialCtx(ctx, leakers[i], weights)
				if err != nil {
					return fmt.Errorf("leaker AS%d: %w", leakers[i], err)
				}
				out[i] = tr
				return nil
			}
		})
		for _, c := range clones {
			if c != nil {
				c.Release()
			}
		}
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Trial replays one leaker and reduces the outcome straight to a LeakTrial
// without building a Result. The detoured fraction's denominator is
// every AS other than the origin and the leaker, as in every leak driver.
func (sw *LeakSweep) Trial(leaker astopo.ASN, weights []float64) (LeakTrial, error) {
	li, propagated, err := sw.runLeaker(leaker, false)
	if err != nil {
		return LeakTrial{}, err
	}
	tr := LeakTrial{Leaker: leaker}
	if !propagated {
		return tr, nil
	}
	b := sw.base
	detoured := 0
	var wsum float64
	// Only touched ASes can carry a flag; the walk meets them in index
	// order, so the weighted sum adds up as a dense scan would.
	flags := sw.sim.flags
	for w, word := range sw.sim.touched {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			if flags[i]&ViaLeak == 0 || int32(i) == b.origin || int32(i) == li {
				continue
			}
			detoured++
			if weights != nil {
				wsum += weights[i]
			}
		}
	}
	tr.DetouredFrac = float64(detoured) / float64(b.g.NumASes()-2)
	if weights != nil {
		tr.DetouredUserFrac = wsum
	}
	return tr, nil
}

// Run replays one leaker and returns an owned copy of the full Result:
// classes, lengths and ViaLegit/ViaLeak flags of the base config's
// propagation with this leaker's announcement added. A leaker holding no
// legitimate route leaks nothing, and the Result is the leak-free outcome
// with every routed AS ViaLegit (a hijacker always announces). Next hops
// are tracked iff the base config asks for them. Run is the one scalar
// path to a leak's full Result.
func (sw *LeakSweep) Run(leaker astopo.ASN) (*Result, error) {
	b := sw.base
	li, propagated, err := sw.runLeaker(leaker, b.cfg.TrackNextHops)
	if err != nil {
		return nil, err
	}
	sim := sw.sim
	if !propagated {
		// The leaker holds no route: propagate the leak-free state
		// (runLeaker left the origin alone in sim.seeds).
		if !sim.propagate(sim.seeds, b.cfg.Exclude, b.cfg.Locking, b.cfg.TrackNextHops, b.cfg.BreakTies) {
			return nil, sim.ctx.Err()
		}
	}
	return sim.view(b.origin, li, b.cfg.TrackNextHops).Clone(), nil
}
