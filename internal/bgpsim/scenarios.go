package bgpsim

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"

	"flatnet/internal/astopo"
	"flatnet/internal/par"
)

// LeakScenario names the announcement/filtering configurations of §8.2.
type LeakScenario int

const (
	// AnnounceAll: the origin announces to all neighbors; no filters.
	AnnounceAll LeakScenario = iota
	// AnnounceAllLockT1: announce to all; the origin's Tier-1 neighbors
	// deploy peer locking.
	AnnounceAllLockT1
	// AnnounceAllLockT1T2: announce to all; Tier-1 and Tier-2 neighbors
	// lock.
	AnnounceAllLockT1T2
	// AnnounceAllLockAll: announce to all; every neighbor locks.
	AnnounceAllLockAll
	// AnnounceHierarchy: announce only to Tier-1s, Tier-2s, and the
	// origin's transit providers (ignoring its rich edge peering).
	AnnounceHierarchy
)

func (s LeakScenario) String() string {
	switch s {
	case AnnounceAll:
		return "announce to all"
	case AnnounceAllLockT1:
		return "announce to all, T1 peer lock"
	case AnnounceAllLockT1T2:
		return "announce to all, T1+T2 peer lock"
	case AnnounceAllLockAll:
		return "announce to all, global peer lock"
	case AnnounceHierarchy:
		return "announce to T1, T2, and providers"
	}
	return fmt.Sprintf("scenario(%d)", int(s))
}

// LeakScenarios lists all scenarios in the order the paper's figures plot
// them.
func LeakScenarios() []LeakScenario {
	return []LeakScenario{
		AnnounceAllLockAll,
		AnnounceAllLockT1T2,
		AnnounceAllLockT1,
		AnnounceAll,
		AnnounceHierarchy,
	}
}

// ScenarioConfig builds the propagation Config (minus the leaker) for a
// scenario: the announcement policy and the peer-locking mask, derived from
// the origin's neighbors and the Tier-1/Tier-2 sets.
func ScenarioConfig(g *astopo.Graph, origin astopo.ASN, tier1, tier2 astopo.ASSet, scen LeakScenario) Config {
	cfg := Config{Origin: origin}
	neighbors := append(append(append([]astopo.ASN(nil),
		g.Providers(origin)...),
		g.Peers(origin)...),
		g.Customers(origin)...)
	switch scen {
	case AnnounceAll:
		// zero config
	case AnnounceAllLockT1, AnnounceAllLockT1T2, AnnounceAllLockAll:
		var locked []astopo.ASN
		for _, n := range neighbors {
			switch {
			case scen == AnnounceAllLockAll:
				locked = append(locked, n)
			case tier1.Has(n):
				locked = append(locked, n)
			case scen == AnnounceAllLockT1T2 && tier2.Has(n):
				locked = append(locked, n)
			}
		}
		cfg.Locking = BuildLocking(g, locked)
	case AnnounceHierarchy:
		var allowed []astopo.ASN
		providers := astopo.NewASSet(g.Providers(origin)...)
		for _, n := range neighbors {
			if tier1.Has(n) || tier2.Has(n) || providers.Has(n) {
				allowed = append(allowed, n)
			}
		}
		cfg.Policy = NewPolicy(g, allowed)
	}
	return cfg
}

// LeakTrial is the outcome of one leak simulation.
type LeakTrial struct {
	Leaker astopo.ASN
	// DetouredFrac is the fraction of ASes (excluding origin and leaker)
	// with at least one tied-best route toward the leaker.
	DetouredFrac float64
	// DetouredUserFrac is the user-population-weighted fraction (0 when
	// no weights were supplied).
	DetouredUserFrac float64
}

// RunLeakTrials simulates cfgBase once per leaker, in parallel, and returns
// one LeakTrial per leaker in input order. weights may be nil. The leak-free
// pre-pass is computed once per configuration through a LeakSweep and
// shared by every worker, so each trial pays only for the per-leaker loop
// detection and leak propagation.
func RunLeakTrials(g *astopo.Graph, cfgBase Config, leakers []astopo.ASN, weights []float64) ([]LeakTrial, error) {
	return RunLeakTrialsCtx(context.Background(), g, cfgBase, leakers, weights)
}

// RunLeakTrialsCtx is RunLeakTrials with cancellation: once ctx is done no
// new trials start, in-flight trials abort between distance buckets, and
// ctx.Err() is returned.
func RunLeakTrialsCtx(ctx context.Context, g *astopo.Graph, cfgBase Config, leakers []astopo.ASN, weights []float64) ([]LeakTrial, error) {
	g.Freeze()
	sweep, err := NewLeakSweep(g, cfgBase)
	if err != nil {
		return nil, err
	}
	trials, err := sweep.Trials(ctx, leakers, weights)
	sweep.Release()
	return trials, err
}

// SampleLeakers draws n distinct ASes uniformly at random, excluding the
// given origin, deterministically from seed.
func SampleLeakers(g *astopo.Graph, origin astopo.ASN, n int, seed int64) []astopo.ASN {
	g.Freeze()
	rng := rand.New(rand.NewSource(seed))
	all := g.ASes()
	if n > len(all)-1 {
		n = len(all) - 1
	}
	perm := rng.Perm(len(all))
	out := make([]astopo.ASN, 0, n)
	for _, i := range perm {
		if all[i] == origin {
			continue
		}
		out = append(out, all[i])
		if len(out) == n {
			break
		}
	}
	return out
}

// CDF reduces trial detour fractions to an empirical CDF evaluated at the
// given fractions in [0,1]: the i-th output is the fraction of trials with
// DetouredFrac <= xs[i]. Used to print the paper's Figs. 7–10 curves.
func CDF(trials []LeakTrial, xs []float64, users bool) []float64 {
	vals := make([]float64, len(trials))
	for i, tr := range trials {
		if users {
			vals[i] = tr.DetouredUserFrac
		} else {
			vals[i] = tr.DetouredFrac
		}
	}
	sort.Float64s(vals)
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(sort.SearchFloat64s(vals, x+1e-12)) / float64(len(vals))
	}
	return out
}

// AverageResilience simulates random (origin, leaker) pairs under
// announce-to-all and returns the mean detoured fraction — the paper's
// baseline "average resilience" line. nOrigins origins are sampled, each
// attacked by nLeakers leakers. Origins run in parallel; each origin's
// worker builds one LeakSweep (pre-pass computed once) and replays its
// leakers against it through a worker-local BatchLeak engine, up to
// BatchLanes per propagation.
// Sampling is drawn up-front from a single sequential RNG, so results are
// deterministic in seed regardless of scheduling.
func AverageResilience(g *astopo.Graph, nOrigins, nLeakers int, seed int64, weights []float64) (asFrac, userFrac float64, err error) {
	g.Freeze()
	rng := rand.New(rand.NewSource(seed))
	all := g.ASes()
	type originJob struct {
		origin  astopo.ASN
		leakers []astopo.ASN
	}
	jobs := make([]originJob, nOrigins)
	for i := range jobs {
		origin := all[rng.Intn(len(all))]
		jobs[i] = originJob{origin: origin, leakers: SampleLeakers(g, origin, nLeakers, rng.Int63())}
	}
	sums := make([]float64, len(jobs))
	wsums := make([]float64, len(jobs))
	counts := make([]int, len(jobs))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(jobs) {
		workers = len(jobs)
	}
	engines := make([]*BatchLeak, workers)
	err = par.For(workers, len(jobs), func(w int) func(i int) error {
		var trials []LeakTrial
		return func(i int) error {
			sweep, err := NewLeakSweep(g, Config{Origin: jobs[i].origin})
			if err != nil {
				return err
			}
			defer sweep.Release()
			if engines[w] == nil {
				engines[w] = getBatchLeak(g)
			}
			if cap(trials) < len(jobs[i].leakers) {
				trials = make([]LeakTrial, len(jobs[i].leakers))
			}
			trials = trials[:len(jobs[i].leakers)]
			if err := engines[w].Trials(sweep, jobs[i].leakers, weights, trials); err != nil {
				return err
			}
			for _, tr := range trials {
				sums[i] += tr.DetouredFrac
				wsums[i] += tr.DetouredUserFrac
				counts[i]++
			}
			return nil
		}
	})
	for _, bl := range engines {
		if bl != nil {
			putBatchLeak(bl)
		}
	}
	if err != nil {
		return 0, 0, err
	}
	var sum, wsum float64
	var count int
	for i := range jobs {
		sum += sums[i]
		wsum += wsums[i]
		count += counts[i]
	}
	if count == 0 {
		return 0, 0, fmt.Errorf("bgpsim: no resilience trials ran")
	}
	return sum / float64(count), wsum / float64(count), nil
}
