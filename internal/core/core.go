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
	// masks overlay the origin's transit providers on a copy; the batch
	// engine takes the base mask itself and applies each lane's providers
	// as overrides.
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

// Reachability returns reach(o, kind): the number of ASes receiving o's
// announcement over the subgraph.
func (m *Metrics) Reachability(o astopo.ASN, kind Kind) (int, error) {
	return m.ReachabilityCtx(context.Background(), o, kind)
}

// ReachabilityAll computes reach(o, kind) for every AS in the graph,
// in parallel. Results are indexed by dense graph index.
//
// The sweep runs on the bit-parallel batch engine (bgpsim.BatchReach), 64
// origins per propagation: the kind's base mask is lane-uniform and each
// origin's providers become sparse per-lane overrides, so one block costs
// about one propagation instead of 64. The batch engine covers exactly the
// plain-reachability configuration this sweep needs;
// policies/leaks/locking/tie-breaking stay on the scalar Simulator. The
// per-origin scalar sweep the equivalence tests compare it against lives
// with those tests.
func (m *Metrics) ReachabilityAll(kind Kind) ([]int, error) {
	out := make([]int, m.ds.Graph.NumASes())
	if err := m.ReachabilityRangeIntoCtx(context.Background(), kind, 0, len(out), 0, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReachabilityRangeIntoCtx computes reach(o, kind) for the dense graph
// indexes [lo, hi) into out (len hi-lo), using at most `workers` goroutines
// (0 means GOMAXPROCS; 1 runs on the calling goroutine). It is the shard
// primitive behind both ReachabilityAll and the cluster sweep endpoints: a
// partition of [0, n) into ranges concatenates to exactly ReachabilityAll's
// output, regardless of the cut points, so a coordinator can merge worker
// partials without any reconciliation. 64-aligned cut points keep every
// propagation word full. The caller owns out: cluster shard handlers
// encode the counts to the wire and recycle the buffer, so the whole shard
// round-trip is allocation-free at steady state.
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

// RankReliance filters the origin out of entries and returns the k largest
// by value (ties broken by ASN): TopReliance's ranking of Reliance's
// entries. It reorders entries, and the result shares their backing array.
func RankReliance(entries []RelianceEntry, o astopo.ASN, k int) []RelianceEntry {
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

// Unreachable returns, for each origin in input order, the dense indexes
// of the ASes that receive no route from it under the kind's subgraph,
// excluding the origin itself and the masked ASes (they are not in the
// subgraph at all), ascending (dense order is ASN order) — the Fig. 4
// population. The origins ride the batch engine, up to 64 per
// propagation, one block after another. Every origin must be present in
// the graph.
func (m *Metrics) Unreachable(ctx context.Context, origins []astopo.ASN, kind Kind) ([][]int32, error) {
	idx, err := m.indexes(origins)
	if err != nil {
		return nil, err
	}
	eng := m.batchPool[kind].Get().(*bgpsim.BatchReach)
	defer m.batchPool[kind].Put(eng)
	out := make([][]int32, len(origins))
	for lo := 0; lo < len(idx); lo += bgpsim.BatchLanes {
		block := idx[lo:min(len(idx), lo+bgpsim.BatchLanes)]
		if err := eng.UnreachedCtx(ctx, block, m.baseMask[kind], kind != Full, out[lo:]); err != nil {
			return nil, err
		}
	}
	return out, nil
}
