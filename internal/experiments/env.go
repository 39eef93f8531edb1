// Package experiments reproduces every table and figure of the paper's
// evaluation over the synthetic Internet presets. Each experiment has a
// typed runner returning the same rows/series the paper reports, a text
// renderer and a CSV builder over that result, and an entry in the Registry
// used by cmd/flatnet and the benchmark harness.
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
	"slices"
	"strings"
	"sync"

	"flatnet/internal/astopo"
	"flatnet/internal/bgpfeed"
	"flatnet/internal/bgpsim"
	"flatnet/internal/core"
	"flatnet/internal/ipasn"
	"flatnet/internal/neighbors"
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
// plans, the rDNS corpus, folded trace campaigns) and results derived by
// propagation (all-AS sweeps, leak panels, the average-resilience baseline,
// the BGP feed view) are built on first demand and memoized: builds for
// distinct keys run concurrently, concurrent demands for the same key
// coalesce onto one build (per-key singleflight, no coarse lock), and only
// successful builds are kept — a transient failure is retried by the next
// caller. Everything an Env hands out is shared between its callers and must
// be treated as read-only.
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
	// destination-sweep build (feed view and trace campaigns) with the
	// build's flight key; the concurrency tests use it to hold two distinct
	// builds open at once.
	traceBuildHook func(key string)
}

// memo is what one Env scope has built so far.
type memo struct {
	flights single.Group[string, any]

	mu     sync.Mutex // guards the maps below, never held while building
	vals   map[string]any
	builds map[string]int // successful builds per key
}

func newMemo() *memo {
	return &memo{
		vals:   make(map[string]any),
		builds: make(map[string]int),
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

// traceFact is what the experiments read of one traceroute: the neighbor
// each §5 methodology stage infers from it where the stage keeps it (§4.1,
// §5, the ablation), and the two Appendix A bits — whether it reached the
// destination AS, and whether its AS path is one of the tied-best
// simulated paths.
type traceFact struct {
	neighbor        [neighbors.StageFinal + 1]astopo.ASN // by stage
	kept            [neighbors.StageFinal + 1]bool
	reached, onBest bool
}

// Campaign is one cloud's trace campaign folded to its facts: one per VM
// group and destination AS. No traceroute outlives the fold.
type Campaign struct {
	VMs   int
	dests int
	facts []traceFact // VM-major: facts[vm*dests+dst]
}

// Neighbors is the cloud's neighbor set as stage infers it: the union over
// the campaign's retained traceroutes.
func (c Campaign) Neighbors(stage neighbors.Stage) astopo.ASSet {
	out := make(astopo.ASSet)
	for i := range c.facts {
		if f := &c.facts[i]; f.kept[stage] {
			out.Add(f.neighbor[stage])
		}
	}
	return out
}

// foldCampaigns returns the visitor that synthesizes a year's campaign for
// every paper cloud, nVMs VMs each (<= 0: the §4.1 counts), on a
// destination sweep over the plan's graph, keeping of each traceroute only
// its facts, and the campaigns it fills, to be read after the sweep. The
// resolvers and stage chains are built once, and each fact is written
// once, by index, on the worker that traced it.
func foldCampaigns(plan *netdb.Plan, year, nVMs int) (bgpsim.Visitor, []Campaign, error) {
	engine := tracesim.New(plan, tracesim.DefaultOptions(int64(year)))
	res, err := neighbors.NewResolvers(plan)
	if err != nil {
		return nil, nil, err
	}
	stages := neighbors.Stages()
	chains := make([]ipasn.Resolver, len(stages))
	for i, s := range stages {
		chains[i] = res.Chain(s)
	}
	dests := plan.Internet().Graph.NumASes()
	var sets [][]tracesim.VM
	out := make([]Campaign, len(Clouds()))
	for i, c := range Clouds() {
		set, err := engine.VMs(c, nVMs)
		if err != nil {
			return nil, nil, err
		}
		sets = append(sets, set)
		out[i] = Campaign{VMs: len(set), dests: dests, facts: make([]traceFact, len(set)*dests)}
	}
	visit := engine.Campaigns(sets, func(si, vi, di int, tr tracesim.Traceroute) {
		f := &out[si].facts[vi*dests+di]
		for i, s := range stages {
			f.neighbor[s], f.kept[s] = neighbors.Neighbor(&tr, tr.VM.CloudASN, chains[i], s)
		}
		f.reached, f.onBest = tr.Reached, tr.OnBestPath
	})
	return visit, out, nil
}

// yearSweep is what a year's destination sweep leaves: the feed-visible
// topology of feedVPCount vantage points, and every paper cloud's default
// trace campaign, folded, in Clouds() order.
type yearSweep struct {
	feed      *astopo.Graph
	campaigns []Campaign
}

// destSweep runs a year's destination sweep (bgpsim.ForEachOrigin) once per
// Env scope, with the route collectors and the four clouds' campaigns as
// its visitors: the propagation depends only on the destination, so both
// products share it. Distinct years build concurrently.
func (e *Env) destSweep(year int) (yearSweep, error) {
	key := fmt.Sprintf("destsweep/%d", year)
	return memoize(e, key, func() (yearSweep, error) {
		plan, err := e.plan(year)
		if err != nil {
			return yearSweep{}, err
		}
		if e.traceBuildHook != nil {
			e.traceBuildHook(key)
		}
		in := plan.Internet()
		collect, feed, err := bgpfeed.Collector(in.Graph, bgpfeed.VantagePoints(in, feedVPCount))
		if err != nil {
			return yearSweep{}, err
		}
		trace, campaigns, err := foldCampaigns(plan, year, 0)
		if err != nil {
			return yearSweep{}, err
		}
		if err := bgpsim.ForEachOrigin(in.Graph, collect, trace); err != nil {
			return yearSweep{}, err
		}
		return yearSweep{feed: feed(), campaigns: campaigns}, nil
	})
}

// Traces returns one cloud's folded trace campaign for a year: the first
// nVMs VM groups of the cloud's default campaign, or all of it for nVMs <= 0
// (the paper's §4.1 VM counts), read from the year's destination sweep. A
// smaller count is a prefix: VMs are selected per PoP in deployment order
// and each group's traces depend only on its own VM and the destination, so
// group i is the same in every campaign that includes it. A count above the
// default is refused; `flatnet trace -vms` runs a larger campaign.
func (e *Env) Traces(year int, cloud string, nVMs int) (Campaign, error) {
	k := slices.Index(Clouds(), cloud)
	if k < 0 {
		return Campaign{}, fmt.Errorf("experiments: no trace campaign for cloud %q", cloud)
	}
	sw, err := e.destSweep(year)
	if err != nil {
		return Campaign{}, err
	}
	c := sw.campaigns[k]
	switch {
	case nVMs <= 0:
		return c, nil
	case nVMs > c.VMs:
		return Campaign{}, fmt.Errorf("experiments: %s's %d campaign has %d VM groups, %d requested", cloud, year, c.VMs, nVMs)
	}
	n := nVMs * c.dests
	return Campaign{VMs: nVMs, dests: c.dests, facts: c.facts[:n:n]}, nil
}

// Clouds lists the four providers in the paper's usual order.
func Clouds() []string { return []string{"Google", "Microsoft", "IBM", "Amazon"} }

// Runner is one registered experiment. Run computes it once, writes its
// text to w, and returns what builds its CSV tables from that same result:
// `flatnet run -outdir` calls it, a plain run does not. tables is nil for
// an experiment without CSV output (fig11's map, appB, the timeline).
type Runner struct {
	ID, Title string
	Run       func(env *Env, w io.Writer) (tables func() []Table, err error)
}

// experiment makes a Run from an experiment's typed computation, its text
// renderer and its CSV builder (nil for none).
func experiment[T any](compute func(*Env) (T, error), text func(io.Writer, *Env, T) error, tables func(T) []Table) func(*Env, io.Writer) (func() []Table, error) {
	return func(env *Env, w io.Writer) (func() []Table, error) {
		res, err := compute(env)
		if err != nil {
			return nil, err
		}
		if err := text(w, env, res); err != nil {
			return nil, err
		}
		if tables == nil {
			return nil, nil
		}
		return func() []Table { return tables(res) }, nil
	}
}

// Registry lists all experiments in paper order.
var Registry = []Runner{
	{"fig2", "Fig. 2: reachability under provider-free / Tier-1-free / hierarchy-free constraints", experiment(Fig2, printFig2, fig2Tables)},
	{"table1", "Table 1: top-20 hierarchy-free reachability, 2015 vs 2020", experiment(table1Top20, printTable1, table1Tables)},
	{"fig3", "Fig. 3: hierarchy-free reachability vs customer cone, all ASes", experiment(Fig3, printFig3, fig3Tables)},
	{"fig4", "Fig. 4: unreachable ASes by type under hierarchy-free constraints", experiment(Fig4, printFig4, fig4Tables)},
	{"fig6", "Fig. 6: reliance histogram per cloud", experiment(Fig6, printFig6, fig6Tables)},
	{"table2", "Table 2: top-3 reliance per cloud", experiment(Table2, printTable2, table2Tables)},
	{"fig7", "Fig. 7: route-leak detour CDFs (Microsoft, Amazon, IBM, Facebook)", experiment(Fig7, printLeakFigures, leakTables("fig7"))},
	{"fig8", "Fig. 8: route-leak detour CDFs (Google)", experiment(panels(Fig8), printLeakFigures, leakTables("fig8"))},
	{"fig9", "Fig. 9: user-weighted route-leak detour CDFs (Google)", experiment(panels(Fig9), printLeakFigures, leakTables("fig9"))},
	{"fig10", "Fig. 10: Google leak resilience, 2015 vs 2020", experiment(Fig10, printFig10, fig10Tables)},
	{"fig11", "Fig. 11: cloud vs transit PoP deployments", experiment(Fig11, printFig11, nil)},
	{"fig12", "Fig. 12: population coverage within 500/700/1000 km of PoPs", experiment(Fig12, printFig12, fig12Tables)},
	{"fig13", "Fig. 13 (App. E): path lengths over time, three weightings", experiment(Fig13, printFig13, fig13Tables)},
	{"table3", "Table 3 (App. C): PoPs and rDNS confirmation per network", experiment(Table3, printTable3, table3Tables)},
	{"appA", "Appendix A: simulated paths vs traced paths", experiment(AppA, printAppA, appATables)},
	{"appB", "Appendix B: Sprint and Deutsche Telekom reliance on Tier-2s", experiment(AppB, printAppB, nil)},
	{"sec41", "§4.1: BGP-feed-visible vs combined cloud neighbor counts", experiment(Sec41, printSec41, sec41Tables)},
	{"sec5", "§5: neighbor-inference FDR/FNR per methodology stage", experiment(Sec5, printSec5, sec5Tables)},
	{"ablation", "Ablation: metrics on feed-only vs augmented vs ground-truth graphs", experiment(Ablation, printAblation, ablationTables)},
	{"ablation-ties", "Ablation: worst-case (all ties) vs tie-broken leak exposure", experiment(TiesAblation, printTiesAblation, tiesAblationTables)},
	{"sensitivity", "Sensitivity: hierarchy-free reachability vs fraction of peerings missed", experiment(Sensitivity, printSensitivity, sensitivityTables)},
	{"hijack", "Extension: accidental leaks vs forged originations (prefix hijacks)", experiment(Hijack, printHijack, hijackTables)},
	{"timeline", "Extension: hierarchy-free cloud reachability along the 2015–2025 timeline", experiment(timelineRows, printTimeline, nil)},
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
