// Package experiments reproduces every table and figure of the paper's
// evaluation over the synthetic Internet presets. Each experiment has a
// typed runner returning the same rows/series the paper reports, a text
// renderer, and an entry in the Registry used by cmd/flatnet and the
// benchmark harness.
//
// Absolute values differ from the paper's — the substrate is a synthetic
// topology (true-scale at 1.0: 69,488 ASes for 2020, matching the paper's
// measured Internet), not the authors' measurement testbed — but the
// shapes (who wins, by what factor, where curves cross) are the
// reproduction targets. EXPERIMENTS.md records paper-vs-measured values
// for every artifact.
package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"

	"flatnet/internal/bgpsim"
	"flatnet/internal/core"
	"flatnet/internal/netdb"
	"flatnet/internal/par"
	"flatnet/internal/population"
	"flatnet/internal/rdns"
	"flatnet/internal/single"
	"flatnet/internal/snapshot"
	"flatnet/internal/topogen"
	"flatnet/internal/tracesim"
)

// Env bundles the datasets experiments run over. Heavy artifacts (address
// plans, traceroute corpora) and results derived by propagation (all-AS
// sweeps, leak panels, the average-resilience baseline, the BGP feed view)
// are built on first demand and memoized: builds for distinct keys run
// concurrently, concurrent demands for the same key coalesce onto one build
// (per-key singleflight, no coarse lock), and only successful builds are
// kept — a transient failure is retried by the next caller. Everything an Env hands out is
// shared between its callers and must be treated as read-only.
type Env struct {
	Scale float64

	In2020, In2015   *topogen.Internet
	M2020, M2015     *core.Metrics
	Pop2020, Pop2015 *population.Model

	// src, when non-nil, is the snapshot Reader whose memory this Env's
	// graphs, metadata and population models borrow (NewEnvFromSnapshot).
	src *snapshot.Reader

	memo *memo

	// traceBuildHook, when set, is called at the start of every
	// trace-corpus build with the build's flight key; the concurrency
	// tests use it to hold two distinct builds open at once.
	traceBuildHook func(key string)
}

// memo is what one Env scope has built so far.
type memo struct {
	flights single.Group[string, any]

	mu     sync.Mutex // guards the maps below, never held while building
	vals   map[string]any
	builds map[string]int // successful builds per key
	traces map[traceKey][][]tracesim.Traceroute
}

func newMemo() *memo {
	return &memo{
		vals:   make(map[string]any),
		builds: make(map[string]int),
		traces: make(map[traceKey][][]tracesim.Traceroute),
	}
}

// memoize returns the value built under key in this Env scope, running
// build only if no earlier call succeeded.
func memoize[T any](e *Env, key string, build func() (T, error)) (T, error) {
	m := e.memo
	v, _, err := m.flights.Do(context.Background(), key, func() (any, error) {
		m.mu.Lock()
		v, ok := m.vals[key]
		m.mu.Unlock()
		if ok {
			return v, nil
		}
		v, err := build()
		if err != nil {
			return nil, err
		}
		m.mu.Lock()
		m.vals[key] = v
		m.builds[key]++
		m.mu.Unlock()
		return v, nil
	})
	if err != nil {
		var zero T
		return zero, err
	}
	return v.(T), nil
}

// builds reports how many builds succeeded under keys with the given prefix
// (coalesced and memo-served demands are not builds).
func (e *Env) builds(prefix string) int {
	e.memo.mu.Lock()
	defer e.memo.mu.Unlock()
	n := 0
	for k, c := range e.memo.builds {
		if strings.HasPrefix(k, prefix) {
			n += c
		}
	}
	return n
}

// Fresh returns a scope over the same worlds, metrics and population models
// with nothing memoized. Benchmarks take one per iteration so that they keep
// timing the computation rather than a map hit.
func (e *Env) Fresh() *Env {
	c := *e
	c.memo = newMemo()
	return &c
}

// traceKey identifies one cached corpus; nVMs is the resolved VM count
// (requests with nVMs <= 0 are normalized to the paper's §4.1 counts).
type traceKey struct {
	year  int
	cloud string
	nVMs  int
}

// NewEnv generates both presets at the given scale (1.0 = 69,488 ASes for
// 2020, the paper's measured Internet). The CLI default is 0.04987 (~3.5k
// ASes), which keeps the whole-Internet sweeps under a minute on a laptop.
// The two presets (and their metrics and
// population models) are built concurrently; generation is deterministic
// per preset seed, so the result is identical to a serial build.
func NewEnv(scale float64) (*Env, error) {
	type parts struct {
		in  *topogen.Internet
		m   *core.Metrics
		pop *population.Model
	}
	specs := [2]topogen.Spec{topogen.Internet2020(scale), topogen.Internet2015(scale)}
	years := [2]int{2020, 2015}
	var built [2]parts
	err := par.For(2, 2, func(w int) func(i int) error {
		return func(i int) error {
			in, err := topogen.Generate(specs[i])
			if err != nil {
				return fmt.Errorf("experiments: generating %d preset: %w", years[i], err)
			}
			built[i] = parts{
				in:  in,
				m:   core.New(core.Dataset{Graph: in.Graph, Tier1: in.Tier1, Tier2: in.Tier2}),
				pop: population.Build(in, 1.1),
			}
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	return &Env{
		Scale:   scale,
		In2020:  built[0].in,
		In2015:  built[1].in,
		M2020:   built[0].m,
		M2015:   built[1].m,
		Pop2020: built[0].pop,
		Pop2015: built[1].pop,
		memo:    newMemo(),
	}, nil
}

// preset returns one year's world as the experiments consume it.
func (e *Env) preset(year int) (*topogen.Internet, *core.Metrics, *population.Model, error) {
	switch year {
	case 2020:
		return e.In2020, e.M2020, e.Pop2020, nil
	case 2015:
		return e.In2015, e.M2015, e.Pop2015, nil
	}
	return nil, nil, nil, fmt.Errorf("experiments: unknown year %d", year)
}

// Plan2020 lazily builds the 2020 address plan.
func (e *Env) Plan2020() (*netdb.Plan, error) { return e.plan(2020) }

// Plan2015 lazily builds the 2015 address plan.
func (e *Env) Plan2015() (*netdb.Plan, error) { return e.plan(2015) }

func (e *Env) plan(year int) (*netdb.Plan, error) {
	in, _, _, err := e.preset(year)
	if err != nil {
		return nil, err
	}
	return memoize(e, fmt.Sprintf("plan/%d", year), func() (*netdb.Plan, error) {
		return netdb.Build(in)
	})
}

// RDNS2020 lazily synthesizes the 2020 rDNS corpus.
func (e *Env) RDNS2020() (*rdns.Corpus, error) {
	plan, err := e.Plan2020()
	if err != nil {
		return nil, err
	}
	return memoize(e, "rdns/2020", func() (*rdns.Corpus, error) {
		return rdns.Synthesize(plan, 20200901), nil
	})
}

// engine returns the year's shared trace engine (one per year so the
// per-city distance cache is shared across every corpus of that year).
func (e *Env) engine(year int) (*tracesim.Engine, error) {
	plan, err := e.plan(year)
	if err != nil {
		return nil, err
	}
	return memoize(e, fmt.Sprintf("engine/%d", year), func() (*tracesim.Engine, error) {
		return tracesim.New(plan, tracesim.DefaultOptions(int64(year))), nil
	})
}

// userWeights is one preset's per-AS user population by dense graph index:
// every leak panel of a year and its average-resilience line weight by the
// same vector.
func (e *Env) userWeights(year int) ([]float64, error) {
	in, _, pop, err := e.preset(year)
	if err != nil {
		return nil, err
	}
	return memoize(e, fmt.Sprintf("weights/%d", year), func() ([]float64, error) {
		return pop.WeightsDense(in.Graph), nil
	})
}

// AvgResilience is the paper's "average resilience" line for one preset:
// the mean detoured fraction over random (origin, leaker) pairs under
// announce-to-all, by AS count and by user population. Every leak panel of
// a year draws the same line, so it is simulated once, with the population
// weights supplied: the AS fraction is the detour count over the AS count
// and does not read them.
func (e *Env) AvgResilience(year int) (asFrac, userFrac float64, err error) {
	in, _, _, err := e.preset(year)
	if err != nil {
		return 0, 0, err
	}
	v, err := memoize(e, fmt.Sprintf("avgres/%d", year), func() ([2]float64, error) {
		weights, err := e.userWeights(year)
		if err != nil {
			return [2]float64{}, err
		}
		as, user, err := bgpsim.AverageResilience(in.Graph, 20, 20, 0xA0E5, weights)
		return [2]float64{as, user}, err
	})
	return v[0], v[1], err
}

// SweepAll is one preset's all-AS reachability under kind, indexed by dense
// graph index. Table 1, Fig. 3 and Fig. 2's hierarchy-free column are views
// of the same sweep.
func (e *Env) SweepAll(year int, kind core.Kind) ([]int, error) {
	_, m, _, err := e.preset(year)
	if err != nil {
		return nil, err
	}
	return memoize(e, fmt.Sprintf("sweep/%d/%s", year, kind), func() ([]int, error) {
		return m.ReachabilityAll(kind)
	})
}

// lookupTraces serves a cached corpus. A request for n VM groups can be
// served as a prefix of a larger cached corpus of the same (year, cloud):
// VMs are selected per PoP in deployment order and each group's traces
// depend only on its own VM and the destination, so group i is identical
// in every corpus that includes it.
func (e *Env) lookupTraces(year int, cloud string, n int) ([][]tracesim.Traceroute, bool) {
	e.memo.mu.Lock()
	defer e.memo.mu.Unlock()
	if tr, ok := e.memo.traces[traceKey{year, cloud, n}]; ok {
		return tr, true
	}
	for k, tr := range e.memo.traces {
		if k.year == year && k.cloud == cloud && k.nVMs > n {
			return tr[:n:n], true
		}
	}
	return nil, false
}

func (e *Env) storeTraces(key traceKey, tr [][]tracesim.Traceroute) {
	e.memo.mu.Lock()
	e.memo.traces[key] = tr
	e.memo.mu.Unlock()
}

// Traces returns the cached traceroute corpus for one cloud (nVMs <= 0 uses
// the paper's §4.1 VM counts). A default-count request triggers one shared
// build of every paper cloud's corpus for that year — the per-destination
// propagation is cloud-independent, so the four campaigns cost a single
// sweep — while concurrent callers for other keys build in parallel and
// callers for the same key coalesce. Errors are returned but never cached.
func (e *Env) Traces(year int, cloud string, nVMs int) ([][]tracesim.Traceroute, error) {
	engine, err := e.engine(year)
	if err != nil {
		return nil, err
	}
	vms, err := engine.VMs(cloud, nVMs)
	if err != nil {
		return nil, err
	}
	n := len(vms)
	if tr, ok := e.lookupTraces(year, cloud, n); ok {
		return tr, nil
	}

	key := fmt.Sprintf("traces/%d/%s/%d", year, cloud, n)
	clouds, sets := []string{cloud}, [][]tracesim.VM{vms}
	defVMs, err := engine.VMs(cloud, 0)
	if err != nil {
		return nil, err
	}
	if n == len(defVMs) {
		// Default-count request: build all paper clouds of this year
		// in one shared pass and populate every cloud's cache entry.
		key = fmt.Sprintf("traces/%d", year)
		clouds, sets = Clouds(), nil
		for _, c := range clouds {
			set, err := engine.VMs(c, 0)
			if err != nil {
				return nil, err
			}
			sets = append(sets, set)
		}
	}
	// The build stores into the cache and memoizes nothing but its own
	// completion: a joiner on the shared per-year flight wants its own
	// cloud's entry, not whichever cloud the flight's leader asked for, so
	// every caller re-reads the cache after the flight completes.
	if _, err := memoize(e, key, func() (struct{}, error) {
		if e.traceBuildHook != nil {
			e.traceBuildHook(key)
		}
		all, err := engine.TraceAllMulti(sets)
		if err != nil {
			return struct{}{}, err
		}
		for i, c := range clouds {
			e.storeTraces(traceKey{year, c, len(sets[i])}, all[i])
		}
		return struct{}{}, nil
	}); err != nil {
		return nil, err
	}
	if tr, ok := e.lookupTraces(year, cloud, n); ok {
		return tr, nil
	}
	return nil, fmt.Errorf("experiments: trace build for %s/%d left no corpus", cloud, year)
}

// Prewarm builds every lazy artifact the experiment registry consumes: both
// address plans, the rDNS corpus, and the default traceroute corpora of all
// paper clouds for 2020 (no registered experiment reads 2015 traces). The
// builds overlap — the trace sweep (the four clouds' demands coalesce onto
// one), the rDNS synthesis, and the 2015 plan proceed concurrently,
// coalescing on the shared 2020 plan. This is the cold-start path
// BenchmarkEnvColdStart measures.
func (e *Env) Prewarm() error {
	tasks := []func() error{
		func() error { _, err := e.RDNS2020(); return err },
		func() error { _, err := e.Plan2015(); return err },
	}
	for _, c := range Clouds() {
		tasks = append(tasks, func() error { _, err := e.Traces(2020, c, 0); return err })
	}
	return par.For(len(tasks), len(tasks), func(w int) func(i int) error {
		return func(i int) error { return tasks[i]() }
	})
}

// Clouds lists the four providers in the paper's usual order.
func Clouds() []string { return []string{"Google", "Microsoft", "IBM", "Amazon"} }

// Runner is one registered experiment.
type Runner struct {
	ID, Title string
	Run       func(*Env, io.Writer) error
}

// Registry lists all experiments in paper order.
var Registry = []Runner{
	{"fig2", "Fig. 2: reachability under provider-free / Tier-1-free / hierarchy-free constraints", runFig2},
	{"table1", "Table 1: top-20 hierarchy-free reachability, 2015 vs 2020", runTable1},
	{"fig3", "Fig. 3: hierarchy-free reachability vs customer cone, all ASes", runFig3},
	{"fig4", "Fig. 4: unreachable ASes by type under hierarchy-free constraints", runFig4},
	{"fig6", "Fig. 6: reliance histogram per cloud", runFig6},
	{"table2", "Table 2: top-3 reliance per cloud", runTable2},
	{"fig7", "Fig. 7: route-leak detour CDFs (Microsoft, Amazon, IBM, Facebook)", runFig7},
	{"fig8", "Fig. 8: route-leak detour CDFs (Google)", runLeakFigure(Fig8)},
	{"fig9", "Fig. 9: user-weighted route-leak detour CDFs (Google)", runLeakFigure(Fig9)},
	{"fig10", "Fig. 10: Google leak resilience, 2015 vs 2020", runFig10},
	{"fig11", "Fig. 11: cloud vs transit PoP deployments", runFig11},
	{"fig12", "Fig. 12: population coverage within 500/700/1000 km of PoPs", runFig12},
	{"fig13", "Fig. 13 (App. E): path lengths over time, three weightings", runFig13},
	{"table3", "Table 3 (App. C): PoPs and rDNS confirmation per network", runTable3},
	{"appA", "Appendix A: simulated paths vs traced paths", runAppA},
	{"appB", "Appendix B: Sprint and Deutsche Telekom reliance on Tier-2s", runAppB},
	{"sec41", "§4.1: BGP-feed-visible vs combined cloud neighbor counts", runSec41},
	{"sec5", "§5: neighbor-inference FDR/FNR per methodology stage", runSec5},
	{"ablation", "Ablation: metrics on feed-only vs augmented vs ground-truth graphs", runAblation},
	{"ablation-ties", "Ablation: worst-case (all ties) vs tie-broken leak exposure", runTiesAblation},
	{"sensitivity", "Sensitivity: hierarchy-free reachability vs fraction of peerings missed", runSensitivity},
	{"hijack", "Extension: accidental leaks vs forged originations (prefix hijacks)", runHijack},
	{"timeline", "Extension: hierarchy-free cloud reachability along the 2015–2025 timeline", runTimeline},
}

// ByID finds a registered experiment.
func ByID(id string) (Runner, bool) {
	for _, r := range Registry {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}
