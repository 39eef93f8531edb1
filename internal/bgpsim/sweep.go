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
// other AS's route. The snapshot therefore keeps rows for those alone, in
// the graph's relayer slots (astopo.Graph.RelayerIndex) plus one for the
// origin: at scale 1.0, 3,405 rows for 69,488 ASes. The one stub row a
// trial reads, its leaker's, is derived from the leaker's neighbors (row).
// A hijack reads nothing of the pre-pass, so a hijack sweep runs none.
//
// A LeakSweep is immutable once built and safe for concurrent use: every
// trial borrows its mutable state (a Simulator, or a BatchLeak engine and
// its loop walk) from a per-graph pool for the length of the call.
type LeakSweep struct {
	g      *astopo.Graph
	cfg    Config // base config
	origin int32

	// locked and excluded list the ASes of cfg.Locking and cfg.Exclude in
	// index order: what a batch block refuses before it relays.
	locked, excluded []int32

	// The pre-pass rows (nil in a hijack sweep): the DAG's next hops and
	// path counts, and the class and length of each row's best routes.
	// Entries of an unrouted row are ClassNone and -1.
	leakDAG
	class []Class
	dist  []int32
}

// leakDAG is the tied-best next-hop DAG of a relay-only leak-free pre-pass
// and its path counts (N in the loop-detection derivation), held in rows:
// AS v's row is slot[v], its relayer slot, and a stub origin's is the last
// row. Only the origin and the ASes with customers hold a route in such a
// pre-pass, so they alone appear on a DAG path and are read through it. The
// next hops are AS indexes.
type leakDAG struct {
	slot   []int32
	csr    nextHopCSR
	counts []float64
}

// rowOf returns the row of v, which must be the origin or an AS with
// customers.
func (d *leakDAG) rowOf(v int32) int32 {
	if r := d.slot[v]; r >= 0 {
		return r
	}
	return int32(len(d.counts) - 1)
}

// hops returns v's tied-best next hops (see rowOf).
func (d *leakDAG) hops(v int32) []int32 { return d.csr.at(d.rowOf(v)) }

// paths returns v's number of tied-best paths to the origin (see rowOf).
func (d *leakDAG) paths(v int32) float64 { return d.counts[d.rowOf(v)] }

// simPool recycles Simulators across sweeps and trials of the same graph.
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

// NewLeakSweep validates base, runs the leak-free pre-pass once on a
// pooled simulator, and returns a sweep ready to replay leakers against
// it. The graph is frozen by the call.
func NewLeakSweep(g *astopo.Graph, base Config) (*LeakSweep, error) {
	g.Freeze()
	sim := getSim(g)
	defer putSim(sim)
	return newLeakSweep(sim, base)
}

// newLeakSweep builds base's sweep on sim. Unless base is a hijack, it
// runs the relay-only leak-free propagation, counts the DAG's paths over
// the simulator's arrays, and copies the origin's and the relayers' rows
// out of them.
func newLeakSweep(sim *Simulator, base Config) (*LeakSweep, error) {
	seeds, err := sim.prepare(base)
	if err != nil {
		return nil, err
	}
	g := sim.g
	sw := &LeakSweep{g: g, cfg: base, origin: seeds[0].idx,
		locked: marked(base.Locking), excluded: marked(base.Exclude)}
	if base.Hijack {
		return sw, nil // a forged origination has no path for a trial to read
	}
	sim.propagate(seeds, sinkMask(g, sw.excluded), base.Locking, true, base.BreakTies)
	sim.ensureCounts()
	pathCountsCSR(sim.csr(), sim.class, sim.dist, sim.orderByDistance(), sim.counts)

	relayers := g.Relayers()
	n := len(relayers) + 1
	sw.slot = g.RelayerIndex()
	sw.class, sw.dist = make([]Class, n), make([]int32, n)
	sw.csr = nextHopCSR{off: make([]int32, n), num: make([]int32, n), arena: slices.Clone(sim.nhArena)}
	sw.counts = make([]float64, n)
	for r := range n {
		v := sw.origin
		if r < len(relayers) {
			v = relayers[r]
		}
		sw.class[r], sw.dist[r] = sim.class[v], sim.dist[v]
		if sim.class[v] != ClassNone {
			sw.counts[r] = sim.counts[v]
		}
		if c := sim.class[v]; c != ClassNone && c != ClassOrigin {
			// The spans keep the simulator's offsets, which record the
			// settle order the stub rows' tie order reads. The origin
			// settles no span: its row keeps the empty one.
			sw.csr.off[r], sw.csr.num[r] = sim.nhOff[v], sim.nhLen[v]
		}
	}
	return sw, nil
}

// marked lists the ASes mask marks, in index order (nil for a nil mask).
func marked(mask []bool) []int32 {
	var list []int32
	for i, m := range mask {
		if m {
			list = append(list, int32(i))
		}
	}
	return list
}

// sinkMask returns the exclusion mask of a relay-only pre-pass: every stub
// and the excluded ASes. A stub other than the origin never exports the
// routes it learns, so keeping it from taking one changes no other AS's
// class, length, next hops or settle order; the origin is a seed and takes
// no route either way. The mask, rather than a stub test in propagate's
// accept, keeps every other propagation's edge loop as it was: the test
// there made plain tracked runs 10-15 % slower. Without exclusions it is
// the graph's own stub mask; otherwise a copy with them set.
func sinkMask(g *astopo.Graph, excluded []int32) []bool {
	sinks := g.Stubs()
	if len(excluded) > 0 {
		sinks = slices.Clone(sinks)
		for _, v := range excluded {
			sinks[v] = true
		}
	}
	return sinks
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
func (sw *LeakSweep) row(v int32, w *loopWalk) prepassRow {
	if sw.slot[v] < 0 && v != sw.origin {
		if sw.cfg.Exclude != nil && sw.cfg.Exclude[v] {
			return prepassRow{dist: -1}
		}
		if r := sw.stubRow(v, sw.g.PeersOf(int(v)), ClassPeer, w); r.class != ClassNone {
			return r
		}
		return sw.stubRow(v, sw.g.ProvidersOf(int(v)), ClassProvider, w)
	}
	r := sw.rowOf(v)
	if sw.class[r] == ClassNone {
		return prepassRow{dist: -1}
	}
	return prepassRow{class: sw.class[r], dist: sw.dist[r], hops: sw.csr.at(r), paths: sw.counts[r]}
}

// stubRow settles stub c, as propagate would, on the offers of nbrs in the
// stage that grants class cls: ClassPeer over c's peers, where the origin
// (if its policy announces to c) and every customer-route holder offer;
// then, if none did, ClassProvider over c's providers, where the origin and
// every routed AS offer. Only the origin and relayers hold routes in the
// pre-pass. A peer-locking stub takes the origin's offer alone. The
// shortest offers tie, in propagate's push order — the origin's, then those
// of customer- and peer-route holders by index, then those of
// provider-route holders in settle order, which their next-hop spans'
// offsets record — and under BreakTies only the first is kept. The path
// count sums the next hops' counts in that order, as pathCountsCSR does.
func (sw *LeakSweep) stubRow(c int32, nbrs []int32, cls Class, w *loopWalk) prepassRow {
	locked := sw.cfg.Locking != nil && sw.cfg.Locking[c]
	best := int32(-1)
	keys := w.keys[:0] // push rank << 32 | next hop
	for _, u := range nbrs {
		var d int32
		var rank uint64
		ru := sw.slot[u]
		switch {
		case u == sw.origin:
			if !sw.cfg.Policy.allows(c) {
				continue
			}
			d, rank = 1, 0
		case locked || ru < 0:
			continue
		case sw.class[ru] == ClassCustomer || sw.class[ru] == ClassPeer && cls == ClassProvider:
			d, rank = sw.dist[ru]+1, 1+uint64(u)
		case sw.class[ru] == ClassProvider && cls == ClassProvider:
			d, rank = sw.dist[ru]+1, 1+uint64(len(sw.slot))+uint64(sw.csr.off[ru])
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
		if sw.cfg.BreakTies {
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
		r.paths += sw.paths(u)
	}
	w.hops = r.hops
	return r
}

// liveLeaker is a leaker the batch engine gives a lane: its position in
// the leaker list and its dense index.
type liveLeaker struct{ pos, idx int32 }

// leakerIndex validates leaker against the sweep and returns its dense
// index.
func (sw *LeakSweep) leakerIndex(leaker astopo.ASN) (int32, error) {
	i, ok := sw.g.Index(leaker)
	if !ok {
		return -1, fmt.Errorf("bgpsim: leaker AS%d not in graph", leaker)
	}
	if leaker == sw.cfg.Origin {
		return -1, fmt.Errorf("bgpsim: leaker equals origin AS%d", sw.cfg.Origin)
	}
	if sw.cfg.Exclude != nil && sw.cfg.Exclude[i] {
		return -1, fmt.Errorf("bgpsim: leaker AS%d is excluded by the mask", leaker)
	}
	return int32(i), nil
}

// liveLeakers validates every leaker, sets out[i] to leaker i's all-zero
// trial, and appends to live the leakers whose leak someone takes (see
// taken), in input order. A hijacker always gets a lane; the others keep
// the zero trial.
func (sw *LeakSweep) liveLeakers(leakers []astopo.ASN, out []LeakTrial, w *loopWalk, live []liveLeaker) ([]liveLeaker, error) {
	for i, leaker := range leakers {
		li, err := sw.leakerIndex(leaker)
		if err != nil {
			return live, err
		}
		out[i] = LeakTrial{Leaker: leaker}
		if sw.cfg.Hijack || sw.taken(li, w) {
			live = append(live, liveLeaker{pos: int32(i), idx: li})
		}
	}
	return live, nil
}

// taken reports whether leaker li's leak can change any AS's route. A
// leaker without a route has nothing to leak. A relaying leaker's lane is
// kept. A stub leaker exports nothing in the pre-pass, so its leak changes
// the world only if some neighbor N holds the leaked copy tied-best or
// better: a customer route when N is the leaker's provider, a peer route
// when N is its peer, both one hop longer than the leaker's own routes. N
// holds it when its pre-pass row has a lower class, or the same class at
// that length or longer, unless N is the origin, excluded, locking, or on
// every tied-best path of the leaker (loop detection drops the copy there).
// If no neighbor holds it, nothing moves and the trial is zero.
func (sw *LeakSweep) taken(li int32, w *loopWalk) bool {
	r := sw.row(li, w)
	switch {
	case r.class == ClassNone:
		return false
	case sw.slot[li] >= 0:
		return true
	}
	blocked := w.onAllPaths(&sw.leakDAG, li, r)
	d := r.dist + 1
	for _, side := range [...]struct {
		nbrs []int32
		cls  Class
	}{{sw.g.ProvidersOf(int(li)), ClassCustomer}, {sw.g.PeersOf(int(li)), ClassPeer}} {
		for _, u := range side.nbrs {
			if u == sw.origin || sw.cfg.Exclude != nil && sw.cfg.Exclude[u] ||
				sw.cfg.Locking != nil && sw.cfg.Locking[u] || slices.Contains(blocked, u) {
				continue
			}
			// The leaker's row and walk are spent: u's row may reuse w.
			if ur := sw.row(u, w); ur.class < side.cls || ur.class == side.cls && ur.dist >= d {
				return true
			}
		}
	}
	return false
}

// checkWeights rejects a user-weight vector that is not one entry per AS.
func (sw *LeakSweep) checkWeights(weights []float64) error {
	if weights != nil && len(weights) != sw.g.NumASes() {
		return fmt.Errorf("bgpsim: weights have %d entries, graph has %d ASes", len(weights), sw.g.NumASes())
	}
	return nil
}

// Release is kept for callers written when a sweep owned its simulator and
// arrays. A sweep now holds only its snapshot, which the garbage collector
// reclaims, and borrows its scratch per call: there is nothing to return.
func (sw *LeakSweep) Release() {}

// runLeaker validates the leaker against the cached pre-pass, installs the
// per-leaker loop-detection mask on sim, and runs the leak propagation into
// sim's buffers. propagated is false when the leaker holds no legitimate
// route (the leak is a no-op and no propagation ran); hijacks always
// propagate.
func (sw *LeakSweep) runLeaker(sim *Simulator, leaker astopo.ASN, track bool) (li int32, propagated bool, err error) {
	cfg := sw.cfg
	if li, err = sw.leakerIndex(leaker); err != nil {
		return -1, false, err
	}
	sim.leakBlocked = nil
	seeds := append(sim.seeds[:0], seed{idx: sw.origin, dist0: 0, flag: ViaLegit, policy: cfg.Policy})
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
	r := sw.row(li, &sim.walk)
	if r.class == ClassNone {
		sim.seeds = seeds
		return li, false, nil // nothing to leak
	}
	sim.blockLeakLoops(&sw.leakDAG, li, r)
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
	sim := getSim(sw.g)
	defer putSim(sim)
	sim.ctx = ctx
	return sw.trial(sim, leaker, weights)
}

// Trials replays every leaker in parallel against the sweep's shared
// pre-pass snapshot and returns one LeakTrial per leaker in input order.
// weights may be nil. Cancellation stops the sweep between trials (and
// mid-propagation within a trial).
//
// Every list routes through the word-parallel BatchLeak engine, BatchLanes
// leakers per propagation, with the 64-lane blocks spread over the
// workers: even one leaker costs less as a partial block than as a scalar
// trial. The blocks are cut over the leakers whose leak someone takes (see
// liveLeakers); the rest keep their all-zero trial. Only BreakTies configs
// (whose tie order is inherently per-lane, see BatchLeak) replay leakers
// one at a time, on one pooled simulator per worker. Both paths produce
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
	var err error
	if !sw.cfg.BreakTies {
		err = sw.batchTrials(ctx, leakers, weights, workers, out)
	} else {
		sims := make([]*Simulator, workers)
		err = par.ForCtx(ctx, workers, len(leakers), func(w int) func(i int) error {
			sim := getSim(sw.g)
			sim.ctx = ctx
			sims[w] = sim
			return func(i int) error {
				tr, err := sw.trial(sim, leakers[i], weights)
				if err != nil {
					return fmt.Errorf("leaker AS%d: %w", leakers[i], err)
				}
				out[i] = tr
				return nil
			}
		})
		for _, sim := range sims {
			if sim != nil {
				putSim(sim)
			}
		}
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// batchTrials is TrialsN's batch arm: the live leakers, found on a pooled
// engine's loop walk, cut into blocks of BatchLanes and replayed on one
// pooled BatchLeak engine per worker.
func (sw *LeakSweep) batchTrials(ctx context.Context, leakers []astopo.ASN, weights []float64, workers int, out []LeakTrial) error {
	if err := sw.checkWeights(weights); err != nil {
		return err
	}
	bl := getBatchLeak(sw.g)
	live, err := sw.liveLeakers(leakers, out, &bl.walk, nil)
	putBatchLeak(bl)
	if err != nil {
		return err
	}
	nBlocks := (len(live) + BatchLanes - 1) / BatchLanes
	engines := make([]*BatchLeak, min(workers, nBlocks))
	err = par.ForCtx(ctx, len(engines), nBlocks, func(w int) func(i int) error {
		bl := getBatchLeak(sw.g)
		bl.ctx = ctx
		engines[w] = bl
		return func(i int) error {
			lo := i * BatchLanes
			return bl.block(sw, live[lo:min(lo+BatchLanes, len(live))], weights, out)
		}
	})
	for _, bl := range engines {
		if bl != nil {
			bl.ctx = nil
			putBatchLeak(bl)
		}
	}
	return err
}

// Trial replays one leaker on a pooled simulator and reduces the outcome
// straight to a LeakTrial without building a Result.
func (sw *LeakSweep) Trial(leaker astopo.ASN, weights []float64) (LeakTrial, error) {
	sim := getSim(sw.g)
	defer putSim(sim)
	return sw.trial(sim, leaker, weights)
}

// trial is Trial on sim. The detoured fraction's denominator is every AS
// other than the origin and the leaker, as in every leak driver.
func (sw *LeakSweep) trial(sim *Simulator, leaker astopo.ASN, weights []float64) (LeakTrial, error) {
	li, propagated, err := sw.runLeaker(sim, leaker, false)
	if err != nil {
		return LeakTrial{}, err
	}
	tr := LeakTrial{Leaker: leaker}
	if !propagated {
		return tr, nil
	}
	detoured := 0
	var wsum float64
	// Only touched ASes can carry a flag; the walk meets them in index
	// order, so the weighted sum adds up as a dense scan would.
	flags := sim.flags
	for w, word := range sim.touched {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			if flags[i]&ViaLeak == 0 || int32(i) == sw.origin || int32(i) == li {
				continue
			}
			detoured++
			if weights != nil {
				wsum += weights[i]
			}
		}
	}
	tr.DetouredFrac = float64(detoured) / float64(sw.g.NumASes()-2)
	if weights != nil {
		tr.DetouredUserFrac = wsum
	}
	return tr, nil
}

// Run replays one leaker on a pooled simulator and returns an owned copy
// of the full Result: classes, lengths and ViaLegit/ViaLeak flags of the
// base config's propagation with this leaker's announcement added. A
// leaker holding no legitimate route leaks nothing, and the Result is the
// leak-free outcome with every routed AS ViaLegit (a hijacker always
// announces). Next hops are tracked iff the base config asks for them. Run
// is the one scalar path to a leak's full Result.
func (sw *LeakSweep) Run(leaker astopo.ASN) (*Result, error) {
	sim := getSim(sw.g)
	defer putSim(sim)
	return sw.run(sim, leaker)
}

// run is Run on sim.
func (sw *LeakSweep) run(sim *Simulator, leaker astopo.ASN) (*Result, error) {
	cfg := sw.cfg
	li, propagated, err := sw.runLeaker(sim, leaker, cfg.TrackNextHops)
	if err != nil {
		return nil, err
	}
	if !propagated {
		// The leaker holds no route: propagate the leak-free state
		// (runLeaker left the origin alone in sim.seeds).
		if !sim.propagate(sim.seeds, cfg.Exclude, cfg.Locking, cfg.TrackNextHops, cfg.BreakTies) {
			return nil, sim.ctx.Err()
		}
	}
	return sim.view(sw.origin, li, cfg.TrackNextHops).Clone(), nil
}
