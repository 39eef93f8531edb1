package experiments

import (
	"fmt"

	"flatnet/internal/core"
	"flatnet/internal/netdb"
	"flatnet/internal/population"
	"flatnet/internal/rdns"
	"flatnet/internal/snapshot"
	"flatnet/internal/topogen"
	"flatnet/internal/tracesim"
)

// World snapshots everything the Env has built so far — the two presets
// always, plus whichever lazy artifacts (plans, rDNS, trace corpora) exist
// at call time. Prewarm first to capture a complete world.
func (e *Env) World() *snapshot.World {
	w := &snapshot.World{
		Scale:     e.Scale,
		Internets: map[int]*topogen.Internet{2020: e.In2020, 2015: e.In2015},
		Pops:      map[int]*population.Model{2020: e.Pop2020, 2015: e.Pop2015},
		Plans:     make(map[int]*netdb.Plan),
		RDNS:      make(map[int]*rdns.Corpus),
		Traces:    make(map[snapshot.TraceKey][][]tracesim.Traceroute),
	}
	e.memo.mu.Lock()
	defer e.memo.mu.Unlock()
	for _, year := range []int{2020, 2015} {
		if p, ok := e.memo.vals[planKey(year)]; ok {
			w.Plans[year] = p.(*netdb.Plan)
		}
	}
	if c, ok := e.memo.vals[rdnsKey]; ok {
		w.RDNS[2020] = c.(*rdns.Corpus)
	}
	for k, tr := range e.memo.traces {
		w.Traces[snapshot.TraceKey{Year: k.year, Cloud: k.cloud, VMs: k.nVMs}] = tr
	}
	return w
}

// NewEnvFromSnapshot wires an Env directly over an open snapshot Reader,
// which must hold both years' topologies and population models. The
// graphs, AS metadata, and population models are zero-copy views of the
// Reader's (typically mmap'd) memory, so time-to-first-query is
// O(page-in) rather than O(decode); only the metrics masks are computed
// (cheap, O(n)). The pointer-shaped artifacts — address plans, rDNS
// corpora, trace campaigns — stay encoded until an experiment demands
// them, at which point they are decoded once from the snapshot instead of
// being rebuilt. Artifacts the snapshot lacks are built lazily as usual.
// Everything the Env hands out borrows the Reader's memory: do not Close
// the Reader while the Env (or anything derived from it) is in use.
func NewEnvFromSnapshot(r *snapshot.Reader) (*Env, error) {
	for _, year := range []int{2020, 2015} {
		if r.Internet(year) == nil {
			return nil, fmt.Errorf("experiments: snapshot has no %d internet", year)
		}
		if r.Population(year) == nil {
			return nil, fmt.Errorf("experiments: snapshot has no %d population model", year)
		}
	}
	in2020, in2015 := r.Internet(2020), r.Internet(2015)
	return &Env{
		Scale:   r.Scale(),
		In2020:  in2020,
		In2015:  in2015,
		M2020:   core.New(core.Dataset{Graph: in2020.Graph, Tier1: in2020.Tier1, Tier2: in2020.Tier2}),
		M2015:   core.New(core.Dataset{Graph: in2015.Graph, Tier1: in2015.Tier1, Tier2: in2015.Tier2}),
		Pop2020: r.Population(2020),
		Pop2015: r.Population(2015),
		src:     r,
		memo:    newMemo(),
	}, nil
}

// Mapped reports whether the Env serves its graphs zero-copy from an OS
// file mapping (the snapshot Reader path on Linux).
func (e *Env) Mapped() bool { return e.src != nil && e.src.Mapped() }

// tracesFromSnapshot serves a trace corpus from the backing snapshot. A
// request for n VM groups can be served as a prefix of a larger stored
// campaign of the same (year, cloud) — the same rule lookupTraces applies
// to the in-memory cache. The bool reports whether the snapshot had a
// usable campaign; an error means it had one and failed to decode, which
// is surfaced rather than silently rebuilt (fail-closed).
func (e *Env) tracesFromSnapshot(year int, cloud string, n int) ([][]tracesim.Traceroute, bool, error) {
	best := -1
	for _, k := range e.src.TraceKeys() {
		if k.Year == year && k.Cloud == cloud && k.VMs >= n && (best == -1 || k.VMs < best) {
			best = k.VMs
		}
	}
	if best == -1 {
		return nil, false, nil
	}
	tr, err := e.src.Traces(snapshot.TraceKey{Year: year, Cloud: cloud, VMs: best})
	if err != nil {
		return nil, false, err
	}
	if best > n {
		tr = tr[:n:n]
	}
	return tr, true, nil
}
