package experiments

import (
	"fmt"

	"flatnet/internal/core"
	"flatnet/internal/population"
	"flatnet/internal/snapshot"
	"flatnet/internal/topogen"
)

// World is what a snapshot of this Env holds: the two presets' topologies
// and population models. What is derived from them (plans, rDNS, trace
// campaigns) is rebuilt on demand from the world by any Env that needs it.
func (e *Env) World() *snapshot.World {
	return &snapshot.World{
		Scale:     e.Scale,
		Internets: map[int]*topogen.Internet{2020: e.In2020, 2015: e.In2015},
		Pops:      map[int]*population.Model{2020: e.Pop2020, 2015: e.Pop2015},
	}
}

// NewEnvFromSnapshot wires an Env directly over an open snapshot Reader,
// which must hold both years' topologies and population models. The
// graphs, AS metadata, and population models are zero-copy views of the
// Reader's (typically mmap'd) memory, so time-to-first-query is
// O(page-in) rather than O(decode); only the metrics masks are computed
// (cheap, O(n)). Address plans, rDNS corpora and trace campaigns are built
// lazily from the world on first demand, as for a generated Env.
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
