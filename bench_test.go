// Package flatnet_bench is the paper's benchmark harness: one testing.B
// benchmark per table and figure, each regenerating the corresponding
// experiment end to end over the shared synthetic environment.
//
// Run with:
//
//	go test -bench=. -benchmem
//
// Benchmarks report domain metrics via b.ReportMetric alongside timing so
// that the headline numbers (reachability percentages, detour fractions,
// FDR/FNR) appear in the bench output.
package flatnet_bench

import (
	"os"
	"strconv"
	"sync"
	"testing"

	"flatnet/internal/bgpsim"
	"flatnet/internal/core"
	"flatnet/internal/experiments"
)

// defaultBenchScale keeps a full -bench=. run in the minutes range; set the
// FLATNET_BENCH_SCALE env var (e.g. FLATNET_BENCH_SCALE=1.0) to run every
// benchmark at the paper's full 69,488-AS topology without editing source.
// The headline benchmarks additionally have dedicated FullScale variants in
// fullscale_bench_test.go that are always pinned at scale 1.0.
const defaultBenchScale = 0.02138

var benchScale = func() float64 {
	if s := os.Getenv("FLATNET_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return defaultBenchScale
}()

var (
	envOnce sync.Once
	env     *experiments.Env
	envErr  error
)

// benchEnv is the shared environment. An Env memoizes the sweeps, leak
// panels and baseline its experiments derive, so the benchmarks of the
// experiments that read them take e.Fresh() per iteration: the worlds stay
// shared, the computation is timed every time.
func benchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	envOnce.Do(func() {
		env, envErr = experiments.NewEnv(benchScale)
	})
	if envErr != nil {
		b.Fatal(envErr)
	}
	return env
}

// reportNsPerAS normalises a benchmark's wall time by the 2020 topology
// size. The headline experiments are (near-)linear in AS count, so ns/AS
// is the scale-independent figure of merit: it should stay flat between
// the scaled-down suite and the FullScale variants, and a rise flags a
// stage that stopped scaling linearly.
func reportNsPerAS(b *testing.B, nASes int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nASes), "ns/AS")
}

func BenchmarkFig2Reachability(b *testing.B) {
	e := benchEnv(b)
	var googlePct float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig2(e.Fresh())
		if err != nil {
			b.Fatal(err)
		}
		total := float64(e.In2020.Graph.NumASes() - 1)
		for _, r := range rows {
			if r.Name == "Google" {
				googlePct = 100 * float64(r.HierarchyFree) / total
			}
		}
	}
	b.ReportMetric(googlePct, "google-hf-%")
}

func BenchmarkTable1TopReachability(b *testing.B) {
	e := benchEnv(b)
	var amazonRank float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(e.Fresh(), 20)
		if err != nil {
			b.Fatal(err)
		}
		amazonRank = float64(res.CloudRanks2020["Amazon"].Rank)
	}
	b.ReportMetric(amazonRank, "amazon-2020-rank")
	reportNsPerAS(b, e.In2020.Graph.NumASes())
}

func BenchmarkFig3ReachVsCone(b *testing.B) {
	e := benchEnv(b)
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3(e.Fresh())
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(res.HighReach) / float64(max(res.HighCone, 1))
	}
	b.ReportMetric(ratio, "highreach/highcone")
	reportNsPerAS(b, e.In2020.Graph.NumASes())
}

func BenchmarkFig4Unreachable(b *testing.B) {
	e := benchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4(e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6Reliance(b *testing.B) {
	e := benchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2TopReliance(b *testing.B) {
	e := benchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7LeakCDFs(b *testing.B) {
	e := benchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(e.Fresh()); err != nil {
			b.Fatal(err)
		}
	}
	reportNsPerAS(b, e.In2020.Graph.NumASes())
}

func BenchmarkFig8GoogleLeak(b *testing.B) {
	e := benchEnv(b)
	var meanAll float64
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig8(e.Fresh())
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range fig.Curves {
			if c.Scenario == bgpsim.AnnounceAll {
				meanAll = c.MeanDetoured
			}
		}
	}
	b.ReportMetric(meanAll, "mean-detoured")
}

func BenchmarkFig9UserWeighted(b *testing.B) {
	e := benchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9(e.Fresh()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10LeakOverTime(b *testing.B) {
	e := benchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig10(e.Fresh()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11PoPMap(b *testing.B) {
	e := benchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig11(e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12PopulationCoverage(b *testing.B) {
	e := benchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig12(e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13PathLengths(b *testing.B) {
	e := benchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig13(e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3RDNS(b *testing.B) {
	e := benchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppASimVsTraced(b *testing.B) {
	e := benchEnv(b)
	var amazonContained float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AppA(e)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Cloud == "Amazon" {
				amazonContained = r.Contained
			}
		}
	}
	b.ReportMetric(100*amazonContained, "amazon-contained-%")
}

func BenchmarkAppBTier1Reliance(b *testing.B) {
	e := benchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AppB(e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSec41PeerVisibility(b *testing.B) {
	e := benchEnv(b)
	var googleMissed float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Sec41(e)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Cloud == "Google" {
				googleMissed = 100 * r.MissedFrac
			}
		}
	}
	b.ReportMetric(googleMissed, "google-feed-missed-%")
}

func BenchmarkSec5Validation(b *testing.B) {
	e := benchEnv(b)
	var finalFNR float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Sec5(e)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			finalFNR = 100 * r.FNR
		}
	}
	b.ReportMetric(finalFNR, "last-FNR-%")
}

func BenchmarkAblationAugmentation(b *testing.B) {
	e := benchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Ablation(e); err != nil {
			b.Fatal(err)
		}
	}
}

// Micro-benchmarks of the core engine, for performance tracking rather than
// paper reproduction.

func BenchmarkPropagationSingleOrigin(b *testing.B) {
	e := benchEnv(b)
	sim := bgpsim.New(e.In2020.Graph)
	google := e.In2020.Clouds["Google"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.ReachabilityCount(bgpsim.Config{Origin: google}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPropagationWithNextHops(b *testing.B) {
	e := benchEnv(b)
	sim := bgpsim.New(e.In2020.Graph)
	google := e.In2020.Clouds["Google"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(bgpsim.Config{Origin: google, TrackNextHops: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHierarchyFreeReachability(b *testing.B) {
	e := benchEnv(b)
	google := e.In2020.Clouds["Google"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.M2020.Reachability(google, core.HierarchyFree); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReachabilityAll measures one whole-Internet hierarchy-free
// sweep — the bit-parallel batch engine behind Table 1, Fig. 3, and the
// sensitivity analysis.
func BenchmarkReachabilityAll(b *testing.B) {
	e := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.M2020.ReachabilityAll(core.HierarchyFree); err != nil {
			b.Fatal(err)
		}
	}
	reportNsPerAS(b, e.In2020.Graph.NumASes())
}

// BenchmarkLeakSweep measures one steady-state leak trial against a cached
// pre-pass — the inner loop of Figs. 7–10. allocs/op should be ~0.
func BenchmarkLeakSweep(b *testing.B) {
	e := benchEnv(b)
	g := e.In2020.Graph
	google := e.In2020.Clouds["Google"]
	leakers := bgpsim.SampleLeakers(g, google, 256, 7)
	sweep, err := bgpsim.NewLeakSweep(g, bgpsim.Config{Origin: google})
	if err != nil {
		b.Fatal(err)
	}
	// Warm the dial queue and arena high-water marks.
	if _, err := sweep.Trial(leakers[0], nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sweep.Trial(leakers[i%len(leakers)], nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLeakTrialsBatch measures the word-parallel leak-trial engine: a
// full BatchLanes-wide block of leakers replayed in ONE propagation against
// a cached pre-pass — the §8 hot path behind Figs. 7–10 and the serving
// layer's /v1/leak batches. One op here covers BatchLanes leakers, so the
// scalar-equivalent cost is BenchmarkLeakSweep × BatchLanes. allocs/op
// should be ~0.
func BenchmarkLeakTrialsBatch(b *testing.B) { benchLeakTrialsBatch(b, benchEnv(b)) }

// benchLeakTrialsBatch times one warmed BatchLanes-wide block against
// Google's announce-to-all sweep in e's 2020 world.
func benchLeakTrialsBatch(b *testing.B, e *experiments.Env) {
	g := e.In2020.Graph
	google := e.In2020.Clouds["Google"]
	leakers := bgpsim.SampleLeakers(g, google, bgpsim.BatchLanes, 7)
	sweep, err := bgpsim.NewLeakSweep(g, bgpsim.Config{Origin: google})
	if err != nil {
		b.Fatal(err)
	}
	bl := bgpsim.NewBatchLeak(g)
	out := make([]bgpsim.LeakTrial, len(leakers))
	// Warm the settle logs and scratch high-water marks.
	if err := bl.Trials(sweep, leakers, nil, out); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bl.Trials(sweep, leakers, nil, out); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(leakers)), "ns/leaker")
}

// BenchmarkPropagateNoAlloc measures one steady-state reachability
// propagation with buffer reuse. allocs/op should be ~0.
func BenchmarkPropagateNoAlloc(b *testing.B) {
	e := benchEnv(b)
	sim := bgpsim.New(e.In2020.Graph)
	google := e.In2020.Clouds["Google"]
	if _, err := sim.ReachabilityCount(bgpsim.Config{Origin: google}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.ReachabilityCount(bgpsim.Config{Origin: google}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTiesAblation(b *testing.B) {
	e := benchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TiesAblation(e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSensitivity(b *testing.B) {
	e := benchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Sensitivity(e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHijackVsLeak(b *testing.B) {
	e := benchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Hijack(e); err != nil {
			b.Fatal(err)
		}
	}
}
