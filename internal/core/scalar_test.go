package core

import (
	"context"
	"runtime"

	"flatnet/internal/bgpsim"
	"flatnet/internal/par"
)

// This file holds the scalar per-origin sweep, the oracle the batch sweep
// and point-query suites compare against: one bgpsim.Simulator
// propagation per origin, counted by Simulator.ReachabilityCountCtx over
// an exclusion mask that a per-worker scratch overlays and undoes.

// originScratch is a reusable (o, kind) exclusion mask for whole-graph
// sweeps: one base-mask copy per worker, with the per-origin overlay undone
// after each use. A sweep over V origins costs O(V + Σ providers) mask work
// instead of the O(V²) of building every mask from scratch.
type originScratch struct {
	m    *Metrics
	kind Kind
	mask []bool
	set  []int32 // provider indexes masked for the current origin
	red  int32   // origin index temporarily un-masked, or -1
}

func (m *Metrics) scratch(kind Kind) *originScratch {
	return &originScratch{
		m:    m,
		kind: kind,
		mask: append([]bool(nil), m.baseMask[kind]...),
		red:  -1,
	}
}

// acquire overlays origin oi (dense index) and returns the mask; release
// must be called before the next acquire.
func (sc *originScratch) acquire(oi int) []bool {
	if sc.kind == Full {
		return sc.mask
	}
	if sc.mask[oi] {
		sc.mask[oi] = false
		sc.red = int32(oi)
	}
	for _, p := range sc.m.ds.Graph.ProvidersOf(oi) {
		if !sc.mask[p] {
			sc.mask[p] = true
			sc.set = append(sc.set, p)
		}
	}
	return sc.mask
}

// release undoes the overlay applied by the last acquire.
func (sc *originScratch) release() {
	for _, p := range sc.set {
		sc.mask[p] = false
	}
	sc.set = sc.set[:0]
	if sc.red >= 0 {
		sc.mask[sc.red] = true
		sc.red = -1
	}
}

// reachabilityRangeScalar is the per-origin sweep over [lo, hi): one scalar
// propagation per AS. Each worker keeps one pooled simulator and one
// scratch exclusion mask for the whole sweep.
func (m *Metrics) reachabilityRangeScalar(ctx context.Context, kind Kind, lo, hi, workers int) ([]int, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	g := m.ds.Graph
	out := make([]int, hi-lo)
	sims := make([]*bgpsim.Simulator, workers)
	err := par.ForCtx(ctx, workers, hi-lo, func(w int) func(i int) error {
		sim := m.pool.Get().(*bgpsim.Simulator)
		sims[w] = sim
		sc := m.scratch(kind)
		return func(i int) error {
			mask := sc.acquire(lo + i)
			cnt, err := sim.ReachabilityCountCtx(ctx, bgpsim.Config{Origin: g.ASNAt(lo + i), Exclude: mask})
			sc.release()
			if err != nil {
				return err
			}
			out[i] = cnt
			return nil
		}
	})
	for _, sim := range sims {
		if sim != nil {
			m.pool.Put(sim)
		}
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}
