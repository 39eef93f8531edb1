package bgpsim

import (
	"context"
	"fmt"
	"math"
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

	// classes, when set via SetClasses, lets Trials/TrialsN replay only one
	// leaker per origin equivalence class and copy the trial to classmates.
	classes *ClassIndex
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
	sw.classes = nil // recycled sweeps must not inherit a prior SetClasses
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
	return &LeakSweep{
		base:    sw.base,
		sim:     getSim(sw.base.g),
		classes: sw.classes,
	}
}

// SetClasses attaches an origin equivalence-class index built over the
// sweep's graph, enabling leaker dedup in Trials/TrialsN: two leakers in
// one class produce identical unweighted trials (the member-swap
// automorphism fixes the origin and every other AS, so the detoured set
// maps bijectively), weighted trials differ only by an O(1) correction to
// the detoured user fraction, and per-trial config invariance is
// re-checked at replay time (see TrialsN). nil, or an index over a
// different graph, disables dedup. Returns the sweep for chaining.
func (sw *LeakSweep) SetClasses(ci *ClassIndex) *LeakSweep {
	if ci != nil && ci.NumASes() != sw.base.g.NumASes() {
		ci = nil
	}
	sw.classes = ci
	return sw
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
	return &LeakSweep{
		base:    &nb,
		sim:     getSim(nb.g),
		classes: sw.classes,
	}
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
	out := make([]LeakTrial, len(leakers))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Class collapse: trials of leakers in one equivalence class are related
	// by the member-swap automorphism, so only the first classmate replays.
	// Unweighted trials are identical and copy verbatim. Weighted trials
	// differ only in the swapped pair's own contribution: swapping
	// classmates a↔b maps the detoured set S_a to (S_a\{b})∪{a} when b∈S_a
	// and fixes it otherwise, so DetouredFrac copies exactly and
	// DetouredUserFrac takes the O(1) correction ind_b·(w[a]−w[b]) with
	// ind_b read from the representative trial's detour bit at b. Soundness
	// needs the automorphism to fix the whole configuration, which the class
	// fingerprint does not see: classmates must agree on their exclusion
	// bit, locking bit, and policy membership, so the dedup key carries
	// those three bits alongside the class id.
	if ci := sw.classes; ci != nil && len(leakers) > 1 {
		cfg := sw.base.cfg
		g := sw.base.g
		type leakKey struct {
			class      int32
			lock, poli bool
		}
		firstOf := make(map[leakKey]int32, len(leakers))
		uniq := make([]astopo.ASN, 0, len(leakers))
		slot := make([]int32, len(leakers))
		isRep := make([]bool, len(leakers))
		lidx := make([]int32, len(leakers))
		repIdx := make([]int32, 0, len(leakers))
		for i, l := range leakers {
			li, ok := g.Index(l)
			if !ok || l == cfg.Origin || (cfg.Exclude != nil && cfg.Exclude[li]) {
				// Unknown, origin-equal, and excluded leakers error per
				// leaker; they stay unique so the replay reports the same
				// error, naming the same leaker, the undeduped path would.
				slot[i] = int32(len(uniq))
				isRep[i] = true
				lidx[i] = -1
				uniq = append(uniq, l)
				repIdx = append(repIdx, -1)
				continue
			}
			lidx[i] = int32(li)
			k := leakKey{
				class: ci.ClassOf(li),
				lock:  cfg.Locking != nil && cfg.Locking[li],
				poli:  cfg.Policy.allows(int32(li)),
			}
			s, seen := firstOf[k]
			if !seen {
				s = int32(len(uniq))
				firstOf[k] = s
				isRep[i] = true
				uniq = append(uniq, l)
				repIdx = append(repIdx, int32(li))
			}
			slot[i] = s
		}
		if len(uniq) < len(leakers) {
			trials := make([]LeakTrial, len(uniq))
			if weights == nil {
				if err := sw.trialsDispatch(ctx, uniq, nil, trials, workers); err != nil {
					return nil, err
				}
				for i, s := range slot {
					out[i] = trials[s]
					out[i].Leaker = leakers[i]
				}
				return out, nil
			}
			// Weighted collapse: each duplicate probes its own node's
			// detour bit in the representative's trial (CSR layout, one
			// probe per duplicate, answered in-engine by the dispatch) and
			// applies the correction above to the copied DetouredUserFrac.
			probeOff := make([]int32, len(uniq)+1)
			for i := range leakers {
				if !isRep[i] {
					probeOff[slot[i]+1]++
				}
			}
			for s := 0; s < len(uniq); s++ {
				probeOff[s+1] += probeOff[s]
			}
			nProbes := int(probeOff[len(uniq)])
			probeNode := make([]int32, nProbes)
			probeAt := make([]int32, len(leakers))
			cursor := make([]int32, len(uniq))
			copy(cursor, probeOff[:len(uniq)])
			for i := range leakers {
				if isRep[i] {
					probeAt[i] = -1
					continue
				}
				p := cursor[slot[i]]
				cursor[slot[i]]++
				probeNode[p] = lidx[i]
				probeAt[i] = p
			}
			bits := make([]bool, nProbes)
			if err := sw.trialsDispatchProbes(ctx, uniq, weights, trials, workers, probeOff, probeNode, bits); err != nil {
				return nil, err
			}
			for i, s := range slot {
				out[i] = trials[s]
				out[i].Leaker = leakers[i]
				if !isRep[i] && bits[probeAt[i]] {
					out[i].DetouredUserFrac += weights[repIdx[s]] - weights[lidx[i]]
				}
			}
			// Runtime parity check: the first duplicate replays directly
			// and must agree — DetouredFrac exactly, DetouredUserFrac up to
			// the correction's float reordering. Any mismatch voids the
			// collapse and the whole list reruns undeduped.
			for i := range leakers {
				if isRep[i] {
					continue
				}
				direct, err := sw.TrialCtx(ctx, leakers[i], weights)
				if err != nil {
					return nil, fmt.Errorf("leaker AS%d: %w", leakers[i], err)
				}
				if direct.DetouredFrac != out[i].DetouredFrac ||
					!wsumClose(direct.DetouredUserFrac, out[i].DetouredUserFrac) {
					if err := sw.trialsDispatch(ctx, leakers, weights, out, workers); err != nil {
						return nil, err
					}
				}
				break
			}
			return out, nil
		}
	}
	if err := sw.trialsDispatch(ctx, leakers, weights, out, workers); err != nil {
		return nil, err
	}
	return out, nil
}

// trialsDispatch replays every leaker with no dedup, writing trials to out
// in input order — the batch/scalar engine split behind Trials/TrialsN.
func (sw *LeakSweep) trialsDispatch(ctx context.Context, leakers []astopo.ASN, weights []float64, out []LeakTrial, workers int) error {
	return sw.trialsDispatchProbes(ctx, leakers, weights, out, workers, nil, nil, nil)
}

// trialsDispatchProbes is trialsDispatch plus detour probes: for leaker j,
// each probe p in probeNode[probeOff[j]:probeOff[j+1]] answers into bits[p]
// whether j's trial detoured that node (dense index) through the leak. The
// bits are read straight off the engine that ran the trial — the batch
// engine's lane words or the scalar simulator's flags — before the engine
// moves on, which is what lets the weighted class collapse in TrialsN pay
// O(1) per duplicate instead of a full replay. probeOff == nil means no
// probes. Both engines answer a leaker's probe of its own node as false-
// equivalent (the batch lane mask excludes it; the scalar bit is paired
// with a zero weight delta), so duplicate-ASN inputs stay exact.
func (sw *LeakSweep) trialsDispatchProbes(ctx context.Context, leakers []astopo.ASN, weights []float64, out []LeakTrial, workers int, probeOff, probeNode []int32, bits []bool) error {
	b := sw.base
	if !b.cfg.BreakTies && len(leakers) >= BatchLanes {
		nBlocks := (len(leakers) + BatchLanes - 1) / BatchLanes
		if workers > nBlocks {
			workers = nBlocks
		}
		engines := make([]*BatchLeak, workers)
		err := par.ForCtx(ctx, workers, nBlocks, func(w int) func(i int) error {
			bl := getBatchLeak(b.g)
			engines[w] = bl
			return func(i int) error {
				lo := i * BatchLanes
				hi := lo + BatchLanes
				if hi > len(leakers) {
					hi = len(leakers)
				}
				if err := bl.TrialsCtx(ctx, sw, leakers[lo:hi], weights, out[lo:hi]); err != nil {
					return err
				}
				if probeOff != nil {
					for j := lo; j < hi; j++ {
						for p := probeOff[j]; p < probeOff[j+1]; p++ {
							bits[p] = bl.detoured(j-lo, probeNode[p])
						}
					}
				}
				return nil
			}
		})
		for _, bl := range engines {
			if bl != nil {
				putBatchLeak(bl)
			}
		}
		return err
	}
	clones := make([]*LeakSweep, workers)
	err := par.ForCtx(ctx, workers, len(leakers), func(w int) func(i int) error {
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
			if probeOff != nil {
				// A zero DetouredFrac covers both "nothing detoured" and
				// "nothing propagated" — in the latter case the simulator
				// flags are stale from an earlier trial and must not be read.
				for p := probeOff[i]; p < probeOff[i+1]; p++ {
					bits[p] = tr.DetouredFrac != 0 && s.sim.flags[probeNode[p]]&ViaLeak != 0
				}
			}
			return nil
		}
	})
	for _, c := range clones {
		if c != nil {
			c.Release()
		}
	}
	return err
}

// wsumClose reports whether two weighted detour sums agree up to float
// reordering: the collapse correction adds terms in a different order than
// the direct node-order reduction, so parity checks allow ~1e-9 relative.
func wsumClose(a, b float64) bool {
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	if m < 1 {
		m = 1
	}
	return d <= 1e-9*m
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
