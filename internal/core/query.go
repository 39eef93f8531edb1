package core

import (
	"context"
	"fmt"

	"flatnet/internal/astopo"
	"flatnet/internal/bgpsim"
)

// This file holds the query-shaped entry points the serving layer
// (internal/serve) calls: the same metrics as the batch API, but taking a
// context so a per-request deadline cancels the underlying propagation,
// and a multi-origin form. Counts of any width run on the bit-parallel
// batch engine; what needs classes, lengths or the tied-best DAG
// (Propagate, Reliance) runs on a scalar Simulator.

// KindFromString parses the four query spellings of Kind ("full",
// "provider-free", "tier1-free", "hierarchy-free") — the inverse of
// Kind.String.
func KindFromString(s string) (Kind, error) {
	for k := Full; k <= HierarchyFree; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("core: unknown reachability kind %q (want full, provider-free, tier1-free, or hierarchy-free)", s)
}

// ReachabilityCtx is Reachability with cancellation: the propagation is
// aborted between stages once ctx is done, returning ctx.Err().
//
// A count needs no classes, lengths or next hops, so it runs one lane of
// the active-set batch engine, whose work is proportional to what the
// origin reaches (measured at scale 1.0, p50 on one core: provider-free
// 0.60 ms, tier1-free 0.23 ms, hierarchy-free 8 µs).
func (m *Metrics) ReachabilityCtx(ctx context.Context, o astopo.ASN, kind Kind) (int, error) {
	oi, ok := m.ds.Graph.Index(o)
	if !ok {
		return 0, fmt.Errorf("bgpsim: origin AS%d not in graph", o)
	}
	eng := m.batchPool[kind].Get().(*bgpsim.BatchReach)
	defer m.batchPool[kind].Put(eng)
	origin := [1]int32{int32(oi)}
	var out [1]int
	err := eng.CountsCtx(ctx, origin[:], m.baseMask[kind], kind != Full, out[:])
	return out[0], err
}

// RelianceCtx is Reliance with cancellation (see ReachabilityCtx). The
// values are computed in the pooled simulator's own buffers
// (bgpsim.Simulator.RelianceCtx), which resets and scans only what the
// origin's propagation touched; the nonzero values are copied out from the
// route holders it lists in ascending index order, so a call costs what the
// origin reaches, not what the graph holds.
func (m *Metrics) RelianceCtx(ctx context.Context, o astopo.ASN, kind Kind) ([]RelianceEntry, error) {
	sim := m.pool.Get().(*bgpsim.Simulator)
	defer m.pool.Put(sim)
	mask := m.acquireMask(o, kind)
	defer m.releaseMask(mask)
	vals, holders, err := sim.RelianceCtx(ctx, bgpsim.Config{Origin: o, Exclude: mask})
	if err != nil {
		return nil, err
	}
	g := m.ds.Graph
	out := make([]RelianceEntry, 0, len(holders))
	for _, i := range holders {
		if v := vals[i]; v > 0 {
			out = append(out, RelianceEntry{AS: g.ASNAt(int(i)), Value: v})
		}
	}
	return out, nil
}

// TopRelianceCtx is TopReliance with cancellation (see ReachabilityCtx).
func (m *Metrics) TopRelianceCtx(ctx context.Context, o astopo.ASN, kind Kind, k int) ([]RelianceEntry, error) {
	entries, err := m.RelianceCtx(ctx, o, kind)
	if err != nil {
		return nil, err
	}
	return topReliance(entries, o, k), nil
}

// ReachabilityMany computes reach(o, kind) for each origin in input order.
// Every width rides the bit-parallel batch engine, up to 64 origins per
// propagation; the engine's work follows the lanes' reach, not the word
// width, so a list narrower than one word is simply one partial block.
// Every origin must be present in the graph.
func (m *Metrics) ReachabilityMany(ctx context.Context, origins []astopo.ASN, kind Kind) ([]int, error) {
	return m.ReachabilityManyN(ctx, origins, kind, 0)
}

// ReachabilityManyN is ReachabilityMany with a worker bound: at most
// `workers` goroutines compute the 64-origin blocks (0 means GOMAXPROCS;
// 1 runs on the calling goroutine). Cluster shard endpoints use 1 so that
// one shard request occupies exactly one serving slot and backpressure
// stays accurate.
func (m *Metrics) ReachabilityManyN(ctx context.Context, origins []astopo.ASN, kind Kind, workers int) ([]int, error) {
	g := m.ds.Graph
	idx := make([]int32, len(origins))
	for i, o := range origins {
		oi, ok := g.Index(o)
		if !ok {
			return nil, fmt.Errorf("core: origin AS%d not in graph", o)
		}
		idx[i] = int32(oi)
	}
	out := make([]int, len(origins))
	if err := m.batchCountsIdxCtx(ctx, kind, idx, 0, out, workers); err != nil {
		return nil, err
	}
	return out, nil
}
