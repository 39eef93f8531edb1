package bgpsim

import (
	"fmt"

	"flatnet/internal/astopo"
)

// refLeakRun is the scalar leak reference the LeakSweep and BatchLeak
// suites compare against: the leak of cfg's prefix by leaker, simulated
// from scratch on sim with no cached state. A leak runs a leak-free
// pre-pass for the leaker's best length, tied-best DAG and path counts,
// installs the loop-detection mask over them, and propagates the origin's
// and the leaker's announcements together; a hijack (cfg.Hijack) skips the
// pre-pass and seeds the leaker at length zero. A leaker holding no route
// leaks nothing: the Result is the leak-free outcome, every routed AS
// ViaLegit. A zero leaker is a plain sim.Run. The Result is a view of
// sim's buffers, as from Run.
//
// It is built from the helpers LeakSweep uses (propagate, pathCountsCSR,
// blockLeakLoops, view) but shares none of its caching: the pre-pass is
// recomputed per call, in sim's own arrays.
func refLeakRun(sim *Simulator, cfg Config, leaker astopo.ASN) (*Result, error) {
	if leaker == 0 {
		return sim.Run(cfg)
	}
	seeds, err := sim.prepare(cfg)
	if err != nil {
		return nil, err
	}
	li, ok := sim.g.Index(leaker)
	if !ok {
		return nil, fmt.Errorf("bgpsim: leaker AS%d not in graph", leaker)
	}
	if leaker == cfg.Origin {
		return nil, fmt.Errorf("bgpsim: leaker equals origin AS%d", cfg.Origin)
	}
	if cfg.Exclude != nil && cfg.Exclude[li] {
		return nil, fmt.Errorf("bgpsim: leaker AS%d is excluded by the mask", leaker)
	}
	origin, leakerIdx := seeds[0].idx, int32(li)
	leak := seed{idx: leakerIdx, flag: ViaLeak, exportAll: true}
	if !cfg.Hijack {
		// The leaked announcement carries the leaker's legitimate best
		// path: find its length, and the ASes on all of its tied-best
		// paths (whose loop detection rejects every leaked copy).
		if !sim.propagate(seeds, cfg.Exclude, cfg.Locking, true, cfg.BreakTies) {
			return nil, sim.ctx.Err()
		}
		if sim.class[li] == ClassNone {
			if !sim.propagate(seeds, cfg.Exclude, cfg.Locking, cfg.TrackNextHops, cfg.BreakTies) {
				return nil, sim.ctx.Err()
			}
			return sim.view(origin, leakerIdx, cfg.TrackNextHops), nil
		}
		counts := make([]float64, sim.n)
		pathCountsCSR(sim.csr(), sim.class, sim.dist, sim.orderByDistance(), counts)
		sim.blockLeakLoops(sim.csr(), counts, leakerIdx)
		leak.dist0 = sim.dist[li]
	}
	seeds = append(seeds, leak)
	sim.seeds = seeds
	if !sim.propagate(seeds, cfg.Exclude, cfg.Locking, cfg.TrackNextHops, cfg.BreakTies) {
		return nil, sim.ctx.Err()
	}
	return sim.view(origin, leakerIdx, cfg.TrackNextHops), nil
}

// detoured counts the ASes of a leak's Result holding at least one
// tied-best route via the leak, excluding the origin and the leaker.
func detoured(r *Result) int {
	n := 0
	for i, f := range r.Flags {
		if f&ViaLeak != 0 && int32(i) != r.Origin && int32(i) != r.LeakerIdx {
			n++
		}
	}
	return n
}

// detouredWeight sums w[i] over the ASes detoured counts — a Trial's
// DetouredUserFrac for the same weights.
func detouredWeight(r *Result, w []float64) float64 {
	var s float64
	for i, f := range r.Flags {
		if f&ViaLeak != 0 && int32(i) != r.Origin && int32(i) != r.LeakerIdx {
			s += w[i]
		}
	}
	return s
}
