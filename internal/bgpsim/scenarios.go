package bgpsim

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
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

// ScenarioConfig builds the leak-free base Config of a scenario (what a
// LeakJob or LeakSweep replays leakers against): the announcement policy and the peer-locking mask, derived from
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

// LeakJob is one configuration's leak trials: Config replayed over Graph
// once per leaker. Weights may be nil;
// otherwise it holds one entry per dense index of Graph.
type LeakJob struct {
	Graph   *astopo.Graph
	Config  Config
	Leakers []astopo.ASN
	Weights []float64
}

// RunLeakJobs runs every job and returns one trial slice per job, in job
// order, each with one LeakTrial per leaker in input order. It is the one
// driver behind every leak experiment; the trials are those of a
// LeakSweep over the job's configuration, whatever the worker count.
//
// A job costs one leak-free pre-pass (NewLeakSweep) and then its blocks of
// BatchLanes leakers (LeakSweep.TrialsN). With at least as many jobs as
// workers (GOMAXPROCS), each worker takes whole jobs, pre-pass first, and
// replays them on a pooled BatchLeak engine of its own: no core waits
// while another runs a pre-pass. With fewer jobs, they run in turn and
// each spreads its blocks over the workers. BreakTies jobs replay one
// leaker at a time on the scalar sweep, either way.
//
// Cancellation stops the run between jobs, between blocks and between a
// block's distance buckets, and returns ctx.Err(); the engines are left
// reusable. The graphs are frozen by the call.
func RunLeakJobs(ctx context.Context, jobs []LeakJob) ([][]LeakTrial, error) {
	for _, j := range jobs {
		j.Graph.Freeze()
	}
	workers, perJob := runtime.GOMAXPROCS(0), 1
	if len(jobs) < workers {
		workers, perJob = 1, workers
	}
	out := make([][]LeakTrial, len(jobs))
	err := par.ForCtx(ctx, workers, len(jobs), func(int) func(i int) error {
		return func(i int) error {
			j := jobs[i]
			sw, err := NewLeakSweep(j.Graph, j.Config)
			if err != nil {
				return err
			}
			out[i], err = sw.TrialsN(ctx, j.Leakers, j.Weights, perJob)
			return err
		}
	})
	if err != nil {
		return nil, canceledOr(ctx, err)
	}
	return out, nil
}

// canceledOr returns ctx.Err() once ctx is done, and err otherwise: a run
// stopped by cancellation reports it as such, however deep the trial that
// saw it wrapped it.
func canceledOr(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}

// SampleLeakers draws n distinct ASes uniformly at random, excluding the
// given origin, deterministically from seed. n <= 0 draws none.
//
// The draw is the prefix of rand.Perm over the dense indexes, skipping the
// origin: Perm's draws for every position, but only the first n+1
// positions kept (permPrefix), so a call costs n+1 entries, not one per
// AS.
func SampleLeakers(g *astopo.Graph, origin astopo.ASN, n int, seed int64) []astopo.ASN {
	if n <= 0 {
		return nil
	}
	g.Freeze()
	all := g.ASes()
	n = min(n, len(all)-1)
	out := make([]astopo.ASN, 0, n)
	for _, i := range permPrefix(rand.New(rand.NewSource(seed)), len(all), n+1) {
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

// permPrefix returns the first k entries of rng.Perm(size), drawing from
// rng exactly what Perm draws. Perm sets m[i] = m[j]; m[j] = i for each i
// with j = Intn(i+1), and an entry at k or beyond is never read back into
// the prefix: so for i >= k only a j below k is written.
func permPrefix(rng *rand.Rand, size, k int) []int {
	k = max(0, min(k, size))
	t := make([]int, k)
	for i := range size {
		j := rng.Intn(i + 1)
		if i < k {
			t[i] = t[j]
			t[j] = i
		} else if j < k {
			t[j] = i
		}
	}
	return t
}

// CDF reduces trial detour fractions to an empirical CDF evaluated at the
// given fractions in [0,1]: the i-th output is the fraction of trials with
// DetouredFrac <= xs[i]. Used to print the paper's Figs. 7–10 curves.
func CDF(trials []LeakTrial, xs []float64, users bool) []float64 {
	vals := DetourFracs(trials, users)
	sort.Float64s(vals)
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(sort.SearchFloat64s(vals, x+1e-12)) / float64(len(vals))
	}
	return out
}

// DetourFracs returns each trial's detoured fraction in trial order: of
// the users when users is set, else of the ASes.
func DetourFracs(trials []LeakTrial, users bool) []float64 {
	fracs := make([]float64, len(trials))
	for i, tr := range trials {
		if users {
			fracs[i] = tr.DetouredUserFrac
		} else {
			fracs[i] = tr.DetouredFrac
		}
	}
	return fracs
}

// DetourStats is the reduction of a leak sample that every report prints.
type DetourStats struct {
	Mean, P95, Worst float64
}

// SummarizeDetours reduces a sample of detoured fractions: the mean,
// summed in sample order; the 95th percentile, element int(0.95*(n-1)) of
// a sorted copy; and the worst. An empty sample gives zeros.
func SummarizeDetours(fracs []float64) DetourStats {
	var st DetourStats
	if len(fracs) == 0 {
		return st
	}
	for _, f := range fracs {
		st.Mean += f
		st.Worst = max(st.Worst, f)
	}
	st.Mean /= float64(len(fracs))
	sorted := slices.Clone(fracs)
	sort.Float64s(sorted)
	st.P95 = sorted[int(0.95*float64(len(sorted)-1))]
	return st
}

// AverageResilience simulates random (origin, leaker) pairs under
// announce-to-all and returns the mean detoured fraction — the paper's
// baseline "average resilience" line. nOrigins origins are sampled, each
// attacked by nLeakers leakers, and run as one RunLeakJobs call, a job per
// origin. Each origin and its leaker sample's seed are drawn up-front from
// a single sequential RNG, so results are deterministic in seed regardless
// of scheduling; the samples themselves are then drawn in parallel.
func AverageResilience(g *astopo.Graph, nOrigins, nLeakers int, seed int64, weights []float64) (asFrac, userFrac float64, err error) {
	g.Freeze()
	rng := rand.New(rand.NewSource(seed))
	all := g.ASes()
	jobs := make([]LeakJob, nOrigins)
	seeds := make([]int64, nOrigins)
	for i := range jobs {
		jobs[i] = LeakJob{Graph: g, Config: Config{Origin: all[rng.Intn(len(all))]}, Weights: weights}
		seeds[i] = rng.Int63()
	}
	par.For(runtime.GOMAXPROCS(0), nOrigins, func(int) func(i int) error {
		return func(i int) error {
			jobs[i].Leakers = SampleLeakers(g, jobs[i].Config.Origin, nLeakers, seeds[i])
			return nil
		}
	})
	trials, err := RunLeakJobs(context.Background(), jobs)
	if err != nil {
		return 0, 0, err
	}
	var sum, wsum float64
	var count int
	for _, job := range trials {
		// Per-origin partial sums first: the baseline's float bits depend
		// on the order of the additions.
		var s, ws float64
		for _, tr := range job {
			s += tr.DetouredFrac
			ws += tr.DetouredUserFrac
		}
		sum += s
		wsum += ws
		count += len(job)
	}
	if count == 0 {
		return 0, 0, fmt.Errorf("bgpsim: no resilience trials ran")
	}
	return sum / float64(count), wsum / float64(count), nil
}
