package bgpsim

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"sync"

	"flatnet/internal/astopo"
	"flatnet/internal/par"
)

// LeakSweep replays many leakers against one base configuration — the inner
// loop of the paper's §8.1 experiments (thousands of trials per
// origin×scenario). A plain Simulator.Run re-derives the leak-free state
// for every trial: the pre-pass propagation, the tied-best next-hop DAG,
// and its path counts are all invariant in the leaker, yet cost as much as
// the leak propagation itself. A sweep computes them once per
// (origin, policy, exclude, locking) configuration and keeps them in an
// immutable snapshot, so each trial pays only for the per-leaker loop
// detection (one backward pass over the cached DAG) and the leak
// propagation proper. Steady-state Trial calls are allocation-free.
//
// A LeakSweep is not safe for concurrent use; Clone shares the snapshot
// with a fresh set of mutable buffers for use from another goroutine.
type LeakSweep struct {
	base *sweepBase
	sim  *Simulator

	// ownsBase marks sweeps created by NewLeakSweep (whose Release
	// recycles the whole sweep); Clone/WithHijack derivatives share the
	// base and only recycle their simulator.
	ownsBase bool
}

// sweepBase is the leaker-invariant snapshot: the leak-free propagation
// outcome and the path counts over its next-hop DAG. It is immutable after
// construction and shared by all clones of a sweep.
type sweepBase struct {
	g      *astopo.Graph
	cfg    Config // base config; Leaker always zero
	origin int32
	class  []Class
	dist   []int32
	csr    nextHopCSR
	order  []int32   // classed nodes in ascending best-length order
	counts []float64 // N(w): tied-best DAG paths w -> origin
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

// NewLeakSweep validates base (whose Leaker field is ignored), runs the
// leak-free pre-pass once, and returns a sweep ready to replay leakers
// against it. The graph is frozen by the call. Release the sweep when
// done to recycle its buffers for the next configuration.
func NewLeakSweep(g *astopo.Graph, base Config) (*LeakSweep, error) {
	base.Leaker = 0
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

// prepass runs base's leak-free propagation on the sweep's simulator and
// installs it as the sweep's snapshot.
func (sw *LeakSweep) prepass(base Config) error {
	sim := sw.sim
	seeds, _, err := sim.prepare(base)
	if err != nil {
		return err
	}
	sim.propagate(seeds, base.Exclude, base.Locking, true, base.BreakTies)
	b := sw.base
	b.cfg = base
	b.origin = seeds[0].idx
	// The snapshot takes the simulator's pre-pass arrays (sim.order among
	// them, once filled) and hands back its own — the previous
	// configuration's, or fresh ones. None of them matches the simulator's
	// touched marks, so all are marked: the next propagation resets every
	// entry before it is read.
	sim.orderByDistance()
	if b.class == nil {
		b.class, b.dist = make([]Class, sim.n), make([]int32, sim.n)
		b.csr.off, b.csr.num = make([]int32, sim.n), make([]int32, sim.n)
		b.counts = make([]float64, sim.n)
	}
	b.class, sim.class = sim.class, b.class
	b.dist, sim.dist = sim.dist, b.dist
	b.csr.off, sim.nhOff = sim.nhOff, b.csr.off
	b.csr.num, sim.nhLen = sim.nhLen, b.csr.num
	b.csr.arena, sim.nhArena = sim.nhArena, b.csr.arena
	b.order, sim.order = sim.order, b.order
	sim.markAll()
	pathCountsCSR(b.csr, b.class, b.dist, b.order, b.counts)
	return nil
}

// Release returns the sweep's buffers to per-graph pools for reuse by the
// next NewLeakSweep or Clone over the same graph. Call it only once the
// sweep AND every Clone/WithHijack derivative is done — the recycled
// arrays back future sweeps, so any later use corrupts them. Releasing is
// optional (an unreleased sweep is ordinary garbage) and a derivative's
// Release recycles only its private simulator.
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

// Base returns the sweep's base configuration (Leaker is always zero).
func (sw *LeakSweep) Base() Config { return sw.base.cfg }

// WithHijack returns a sweep replaying leakers as forged originations
// (hijack=true) or plain leaks (false), sharing this sweep's pre-pass
// snapshot: the leak-free propagation is independent of the Hijack flag, so
// callers comparing leak and hijack exposure of one configuration pay for
// the pre-pass once. The returned sweep owns fresh mutable buffers (like
// Clone) when the flag differs, and is the receiver itself when it already
// matches.
func (sw *LeakSweep) WithHijack(hijack bool) *LeakSweep {
	if sw.base.cfg.Hijack == hijack {
		return sw
	}
	nb := *sw.base
	nb.cfg.Hijack = hijack
	return &LeakSweep{base: &nb, sim: getSim(nb.g)}
}

// runLeaker validates the leaker against the cached pre-pass, installs the
// per-leaker loop-detection mask, and runs the leak propagation into the
// sweep's simulator buffers. propagated is false when the leaker holds no
// legitimate route (the leak is a no-op and no propagation ran); hijacks
// always propagate.
func (sw *LeakSweep) runLeaker(leaker astopo.ASN, track bool) (li int32, propagated bool, err error) {
	b := sw.base
	cfg := b.cfg
	i, ok := b.g.Index(leaker)
	if !ok {
		return -1, false, fmt.Errorf("bgpsim: leaker AS%d not in graph", leaker)
	}
	if leaker == cfg.Origin {
		return -1, false, fmt.Errorf("bgpsim: leaker equals origin AS%d", cfg.Origin)
	}
	if cfg.Exclude != nil && cfg.Exclude[i] {
		return -1, false, fmt.Errorf("bgpsim: leaker AS%d is excluded by the mask", leaker)
	}
	li = int32(i)
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
	if b.class[li] == ClassNone {
		sim.seeds = seeds
		return li, false, nil // nothing to leak
	}
	sim.blockLeakLoops(b.csr, b.counts, li)
	seeds = append(seeds, seed{idx: li, dist0: b.dist[li], flag: ViaLeak, exportAll: true})
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
// Batches of at least BatchLanes leakers route through the word-parallel
// BatchLeak engine, BatchLanes leakers per propagation, with the 64-lane
// blocks spread over the workers; smaller batches and BreakTies configs
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
	if !b.cfg.BreakTies && len(leakers) >= BatchLanes {
		nBlocks := (len(leakers) + BatchLanes - 1) / BatchLanes
		workers = min(workers, nBlocks)
		engines := make([]*BatchLeak, workers)
		err = par.ForCtx(ctx, workers, nBlocks, func(w int) func(i int) error {
			bl := getBatchLeak(b.g)
			engines[w] = bl
			return func(i int) error {
				lo := i * BatchLanes
				hi := min(lo+BatchLanes, len(leakers))
				return bl.TrialsCtx(ctx, sw, leakers[lo:hi], weights, out[lo:hi])
			}
		})
		for _, bl := range engines {
			if bl != nil {
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
// without materializing a Result. The detoured fraction's denominator is
// every AS other than the origin and the leaker, matching RunLeakTrials.
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

// Run replays one leaker and materializes the full Result, exactly as
// Simulator.Run would for the base config plus this leaker (including the
// leak-free outcome with everything marked legitimate when the leaker holds
// no route). Next hops are tracked iff the base config asks for them.
func (sw *LeakSweep) Run(leaker astopo.ASN) (*Result, error) {
	b := sw.base
	li, propagated, err := sw.runLeaker(leaker, b.cfg.TrackNextHops)
	if err != nil {
		return nil, err
	}
	res := &Result{Graph: b.g, Origin: b.origin, LeakerIdx: li}
	if !propagated {
		res.Class = append([]Class(nil), b.class...)
		res.Dist = append([]int32(nil), b.dist...)
		res.Flags = make([]uint8, len(b.class))
		for i, c := range b.class {
			if c != ClassNone {
				res.Flags[i] = ViaLegit
			}
		}
		if b.cfg.TrackNextHops {
			res.NextHops = b.csr.materialize()
		}
		return res, nil
	}
	sim := sw.sim
	res.Class = append([]Class(nil), sim.class...)
	res.Dist = append([]int32(nil), sim.dist...)
	res.Flags = append([]uint8(nil), sim.flags...)
	if b.cfg.TrackNextHops {
		res.NextHops = sim.csr().materialize()
	}
	return res, nil
}
