// Package core implements the paper's primary contribution: the
// hierarchy-free reachability metric and its companions (§6–§7).
//
// For an origin AS o over an AS-level topology I, the metrics are defined
// by route propagation (package bgpsim) over subgraphs of I:
//
//	provider-free reachability   reach(o, I \ P_o)            (§6.2)
//	Tier-1-free reachability     reach(o, I \ P_o \ T1)       (§6.3)
//	hierarchy-free reachability  reach(o, I \ P_o \ T1 \ T2)  (§6.4)
//
// where P_o is the set of o's transit providers and T1/T2 are the Tier-1
// and Tier-2 ISP sets. Reliance (§7.1) measures, for each other AS a, the
// expected number of destinations whose tied-best paths toward o traverse
// a. The package works over any Dataset — synthetic topologies from
// package topogen or real CAIDA relationship files parsed by package
// astopo.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"flatnet/internal/astopo"
	"flatnet/internal/bgpsim"
	"flatnet/internal/par"
)

// Dataset is the input to the metrics: a topology plus the Tier-1 and
// Tier-2 exclusion sets (the paper takes them from ProbLink/AS-Rank; the
// synthetic generator defines them by construction).
type Dataset struct {
	Graph        *astopo.Graph
	Tier1, Tier2 astopo.ASSet
}

// Kind selects the exclusion set of a reachability computation.
type Kind int

const (
	// Full excludes nothing (baseline reachability).
	Full Kind = iota
	// ProviderFree excludes the origin's transit providers.
	ProviderFree
	// Tier1Free additionally excludes the Tier-1 clique.
	Tier1Free
	// HierarchyFree additionally excludes the Tier-2 ISPs — the paper's
	// headline metric.
	HierarchyFree
)

func (k Kind) String() string {
	switch k {
	case Full:
		return "full"
	case ProviderFree:
		return "provider-free"
	case Tier1Free:
		return "tier1-free"
	case HierarchyFree:
		return "hierarchy-free"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Metrics computes the paper's metrics over one dataset. It is safe for
// concurrent use; internal simulators are pooled per goroutine.
type Metrics struct {
	ds   Dataset
	pool sync.Pool // *bgpsim.Simulator, one per worker
	// batchPool holds the *bgpsim.BatchReach engines behind every
	// reachability count — sweeps and point queries alike — one pool per
	// kind: an engine then always sees the same base-mask backing array, so
	// BatchReach un-applies the previous call's few per-lane overrides
	// instead of recomposing its n allowed words.
	batchPool [HierarchyFree + 1]sync.Pool
	maskPool  sync.Pool // []bool scratch for per-call (o, kind) masks
	// baseMask holds, per kind, the origin-independent part of the
	// exclusion mask (the Tier-1/Tier-2 sets), computed once. Per-origin
	// masks overlay the origin's transit providers on a copy — or, on
	// whole-graph sweeps, on a reusable per-worker scratch that undoes
	// the overlay between origins (originScratch).
	baseMask [HierarchyFree + 1][]bool
}

// New returns a Metrics over ds. The graph is frozen.
func New(ds Dataset) *Metrics {
	ds.Graph.Freeze()
	m := &Metrics{ds: ds}
	m.pool.New = func() any { return bgpsim.New(ds.Graph) }
	for kind := range m.batchPool {
		m.batchPool[kind].New = func() any { return bgpsim.NewBatchReach(ds.Graph) }
	}
	n := ds.Graph.NumASes()
	for kind := Full; kind <= HierarchyFree; kind++ {
		mask := make([]bool, n)
		if kind >= Tier1Free {
			for a := range ds.Tier1 {
				if i, ok := ds.Graph.Index(a); ok {
					mask[i] = true
				}
			}
		}
		if kind >= HierarchyFree {
			for a := range ds.Tier2 {
				if i, ok := ds.Graph.Index(a); ok {
					mask[i] = true
				}
			}
		}
		m.baseMask[kind] = mask
	}
	return m
}

// Dataset returns the dataset the metrics operate on.
func (m *Metrics) Dataset() Dataset { return m.ds }

// SweepClasses builds the dataset's origin equivalence-class index, a
// topology statistic (see bgpsim.ClassIndex). No metric reads it: every
// sweep propagates every origin.
func (m *Metrics) SweepClasses() *bgpsim.ClassIndex {
	return bgpsim.NewClassIndex(m.ds.Graph, m.ds.Tier1, m.ds.Tier2, nil)
}

// Mask builds the dense exclusion mask for (o, kind): the origin itself is
// never masked even when it belongs to T1/T2 (a Tier-1 origin is not
// excluded from its own propagation).
func (m *Metrics) Mask(o astopo.ASN, kind Kind) []bool {
	mask := append([]bool(nil), m.baseMask[kind]...)
	m.overlayOrigin(mask, o, kind)
	return mask
}

// overlayOrigin turns a copy of the kind's base mask into the (o, kind)
// mask: the origin is un-masked and its transit providers are masked.
func (m *Metrics) overlayOrigin(mask []bool, o astopo.ASN, kind Kind) {
	if kind == Full {
		return
	}
	g := m.ds.Graph
	oi, ok := g.Index(o)
	if !ok {
		return
	}
	mask[oi] = false
	for _, p := range g.ProvidersOf(oi) {
		mask[p] = true
	}
}

// acquireMask returns the (o, kind) exclusion mask built on a pooled
// buffer: semantically identical to Mask but amortizing the O(V)
// allocation across calls. The mask is only valid until releaseMask;
// callers that retain the mask must use Mask instead.
func (m *Metrics) acquireMask(o astopo.ASN, kind Kind) []bool {
	n := len(m.baseMask[kind])
	buf, _ := m.maskPool.Get().([]bool)
	if cap(buf) < n {
		buf = make([]bool, n)
	}
	mask := buf[:n]
	copy(mask, m.baseMask[kind])
	m.overlayOrigin(mask, o, kind)
	return mask
}

// releaseMask returns a mask obtained from acquireMask to the pool.
func (m *Metrics) releaseMask(mask []bool) {
	m.maskPool.Put(mask) //nolint:staticcheck // slice-header boxing is far cheaper than the O(V) copy it saves
}

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

// Reachability returns reach(o, kind): the number of ASes receiving o's
// announcement over the subgraph.
func (m *Metrics) Reachability(o astopo.ASN, kind Kind) (int, error) {
	return m.ReachabilityCtx(context.Background(), o, kind)
}

// Propagate runs a full propagation for (o, kind), exposing classes,
// lengths, and (optionally) the tied-best next-hop DAG.
func (m *Metrics) Propagate(o astopo.ASN, kind Kind, trackNextHops bool) (*bgpsim.Result, error) {
	sim := m.pool.Get().(*bgpsim.Simulator)
	defer m.pool.Put(sim)
	mask := m.acquireMask(o, kind)
	defer m.releaseMask(mask)
	return sim.Run(bgpsim.Config{Origin: o, Exclude: mask, TrackNextHops: trackNextHops})
}

// ReachabilityAll computes reach(o, kind) for every AS in the graph,
// in parallel. Results are indexed by dense graph index.
//
// The sweep runs on the bit-parallel batch engine (bgpsim.BatchReach), 64
// origins per propagation: the kind's base mask is lane-uniform and each
// origin's providers become sparse per-lane overrides, so one block costs
// about one propagation instead of 64. The batch engine covers exactly the
// plain-reachability configuration this sweep needs;
// policies/leaks/locking/tie-breaking stay on the scalar Simulator, and
// reachabilityRangeScalar is the per-origin reference the equivalence
// tests compare this sweep against.
func (m *Metrics) ReachabilityAll(kind Kind) ([]int, error) {
	return m.ReachabilityRangeCtx(context.Background(), kind, 0, m.ds.Graph.NumASes(), 0)
}

// ReachabilityRangeCtx computes reach(o, kind) for the dense graph indexes
// [lo, hi), using at most `workers` goroutines (0 means GOMAXPROCS; 1 runs
// on the calling goroutine). It is the shard primitive behind both
// ReachabilityAll and the cluster sweep endpoints: a partition of [0, n)
// into ranges concatenates to exactly ReachabilityAll's output, regardless
// of the cut points, so a coordinator can merge worker partials without any
// reconciliation. 64-aligned cut points keep every propagation word full.
func (m *Metrics) ReachabilityRangeCtx(ctx context.Context, kind Kind, lo, hi, workers int) ([]int, error) {
	if lo < 0 || hi > m.ds.Graph.NumASes() || lo > hi {
		return nil, fmt.Errorf("core: range [%d, %d) outside the %d-AS graph", lo, hi, m.ds.Graph.NumASes())
	}
	out := make([]int, hi-lo)
	if err := m.ReachabilityRangeIntoCtx(ctx, kind, lo, hi, workers, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReachabilityRangeIntoCtx is ReachabilityRangeCtx writing into out (len
// hi-lo), for callers that recycle result buffers — cluster shard handlers
// encode the counts to the wire and discard them, so a pooled out keeps the
// whole shard round-trip allocation-free at steady state.
func (m *Metrics) ReachabilityRangeIntoCtx(ctx context.Context, kind Kind, lo, hi, workers int, out []int) error {
	n := m.ds.Graph.NumASes()
	if lo < 0 || hi > n || lo > hi {
		return fmt.Errorf("core: range [%d, %d) outside the %d-AS graph", lo, hi, n)
	}
	if len(out) != hi-lo {
		return fmt.Errorf("core: out has %d entries for range [%d, %d)", len(out), lo, hi)
	}
	return m.batchCountsIdxCtx(ctx, kind, nil, lo, out, workers)
}

// batchCountsIdxCtx runs bgpsim.BatchReach, 64 origins per propagation,
// over the origins idx (dense indexes) or, when idx is nil, the contiguous
// dense range [lo, lo+len(out)), writing counts in selection order to out.
// It is the one path behind sweeps, range shards and origin lists.
func (m *Metrics) batchCountsIdxCtx(ctx context.Context, kind Kind, idx []int32, lo int, out []int, workers int) error {
	total := len(out)
	if total == 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	const lanes = bgpsim.BatchLanes
	blocks := (total + lanes - 1) / lanes
	engines := make([]*bgpsim.BatchReach, workers)
	err := par.ForCtx(ctx, workers, blocks, func(w int) func(i int) error {
		eng := m.batchPool[kind].Get().(*bgpsim.BatchReach)
		engines[w] = eng
		scratch := make([]int32, lanes)
		return func(bi int) error {
			blo := bi * lanes
			bhi := blo + lanes
			if bhi > total {
				bhi = total
			}
			var block []int32
			if idx == nil {
				block = scratch[:bhi-blo]
				for i := range block {
					block[i] = int32(lo + blo + i)
				}
			} else {
				block = idx[blo:bhi:bhi]
			}
			return eng.CountsCtx(ctx, block, m.baseMask[kind], kind != Full, out[blo:bhi])
		}
	})
	for _, eng := range engines {
		if eng != nil {
			m.batchPool[kind].Put(eng)
		}
	}
	return err
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

// RelianceEntry pairs an AS with its reliance value.
type RelianceEntry struct {
	AS    astopo.ASN
	Value float64
}

// Reliance computes rely(o, a) for all a under the given kind's subgraph,
// returning entries for every AS with nonzero reliance, unsorted. The
// origin itself and per-destination self-reliance are included, matching
// §7.1's definition.
func (m *Metrics) Reliance(o astopo.ASN, kind Kind) ([]RelianceEntry, error) {
	return m.RelianceCtx(context.Background(), o, kind)
}

// TopReliance returns the k ASes (excluding the origin itself) on which o
// relies most, sorted descending — Table 2's rows.
func (m *Metrics) TopReliance(o astopo.ASN, kind Kind, k int) ([]RelianceEntry, error) {
	return m.TopRelianceCtx(context.Background(), o, kind, k)
}

// topReliance filters the origin out of entries and returns the k largest
// by value (ties broken by ASN), reusing entries' backing array.
func topReliance(entries []RelianceEntry, o astopo.ASN, k int) []RelianceEntry {
	filtered := entries[:0]
	for _, e := range entries {
		if e.AS != o {
			filtered = append(filtered, e)
		}
	}
	sort.Slice(filtered, func(i, j int) bool {
		if filtered[i].Value != filtered[j].Value {
			return filtered[i].Value > filtered[j].Value
		}
		return filtered[i].AS < filtered[j].AS
	})
	if k > len(filtered) {
		k = len(filtered)
	}
	return filtered[:k]
}

// Unreachable returns the ASes that receive no route from o under the
// kind's subgraph, excluding o itself and the masked ASes (they are not in
// the subgraph at all) — the Fig. 4 population.
func (m *Metrics) Unreachable(o astopo.ASN, kind Kind) ([]astopo.ASN, error) {
	sim := m.pool.Get().(*bgpsim.Simulator)
	defer m.pool.Put(sim)
	// One mask serves both the propagation and the filtering below —
	// Propagate would rebuild the same (o, kind) mask internally.
	mask := m.acquireMask(o, kind)
	defer m.releaseMask(mask)
	res, err := sim.Run(bgpsim.Config{Origin: o, Exclude: mask})
	if err != nil {
		return nil, err
	}
	g := m.ds.Graph
	var out []astopo.ASN
	for i, c := range res.Class {
		if c != bgpsim.ClassNone || mask[i] {
			continue
		}
		if a := g.ASNAt(i); a != o {
			out = append(out, a)
		}
	}
	return out, nil
}
