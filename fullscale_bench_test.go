package flatnet_bench

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"flatnet/internal/astopo"
	"flatnet/internal/core"
	"flatnet/internal/experiments"
	"flatnet/internal/topogen"
)

// Full-scale variants of the headline benchmarks, pinned at the paper's
// true scale (scale 1.0 = 69,488 ASes in 2020, 51,801 in 2015) regardless
// of FLATNET_BENCH_SCALE. The scaled-down suite in bench_test.go tracks
// day-to-day regressions cheaply; these are the numbers that matter for the
// reproduction itself, and their ns/AS metric should stay in line with the
// scaled-down runs — a divergence means some stage stopped scaling
// linearly in topology size.

var (
	fullEnvOnce sync.Once
	fullEnv     *experiments.Env
	fullEnvErr  error
)

// fullScaleEnv generates the scale-1.0 environment once per test process
// (tens of seconds on one core) and shares it across every FullScale
// benchmark and BenchmarkSnapshotLoad. No prewarm: these benchmarks only
// exercise the topology/propagation path, not plans or trace corpora.
func fullScaleEnv(b *testing.B) *experiments.Env {
	b.Helper()
	fullEnvOnce.Do(func() {
		fullEnv, fullEnvErr = experiments.NewEnv(1.0)
	})
	if fullEnvErr != nil {
		b.Fatal(fullEnvErr)
	}
	return fullEnv
}

func BenchmarkTable1TopReachabilityFullScale(b *testing.B) {
	e := fullScaleEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(e.Fresh(), 20); err != nil {
			b.Fatal(err)
		}
	}
	reportNsPerAS(b, e.In2020.Graph.NumASes())
}

func BenchmarkFig3ReachVsConeFullScale(b *testing.B) {
	e := fullScaleEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(e.Fresh()); err != nil {
			b.Fatal(err)
		}
	}
	reportNsPerAS(b, e.In2020.Graph.NumASes())
}

func BenchmarkFig7LeakCDFsFullScale(b *testing.B) {
	e := fullScaleEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(e.Fresh()); err != nil {
			b.Fatal(err)
		}
	}
	reportNsPerAS(b, e.In2020.Graph.NumASes())
}

// BenchmarkLeakTrialsBatchFullScale is BenchmarkLeakTrialsBatch at scale
// 1.0 — the kernel a reproduction pass spends most of its time in.
// ns/leaker is the per-trial cost; allocs/op should be 0.
func BenchmarkLeakTrialsBatchFullScale(b *testing.B) { benchLeakTrialsBatch(b, fullScaleEnv(b)) }

// BenchmarkGenerateFullScale measures one build of the paper's 2020 world
// (69,488 ASes): every RNG draw, every duplicate-link check and the final
// Freeze. It is the larger half of the generation behind `flatnet snapshot
// build -scale 1.0`.
func BenchmarkGenerateFullScale(b *testing.B) {
	var nASes int
	for i := 0; i < b.N; i++ {
		in, err := topogen.Generate(topogen.Internet2020(1.0))
		if err != nil {
			b.Fatal(err)
		}
		nASes = in.Graph.NumASes()
	}
	reportNsPerAS(b, nASes)
}

func BenchmarkReachabilityAllFullScale(b *testing.B) {
	e := fullScaleEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.M2020.ReachabilityAll(core.HierarchyFree); err != nil {
			b.Fatal(err)
		}
	}
	reportNsPerAS(b, e.In2020.Graph.NumASes())
}

// BenchmarkPointReachFullScale measures one cold point count — what a
// /v1/reach cache miss costs below the serving layer — for each restricted
// kind, over uniform origins drawn from a fixed seed. The count is one lane
// of the active-set batch engine, so ns/op tracks what the origins reach
// (provider-free ≫ tier1-free ≫ hierarchy-free), and it allocates nothing.
// It is a one-core number whatever -cpu says.
func BenchmarkPointReachFullScale(b *testing.B) {
	e := fullScaleEnv(b)
	origins := pointOrigins(e.In2020.Graph)
	ctx := context.Background()
	for _, kind := range []core.Kind{core.ProviderFree, core.Tier1Free, core.HierarchyFree} {
		pass := func(b *testing.B, n int) {
			for i := 0; i < n; i++ {
				if _, err := e.M2020.ReachabilityCtx(ctx, origins[i%len(origins)], kind); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.Run(kind.String(), func(b *testing.B) {
			// One P (the harness sets -cpu's value before every run): a
			// sync.Pool keeps a private slot per P, so on several the
			// goroutine's first migration builds a second engine mid-run.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			// The harness also collects garbage before every run, which
			// can empty the pool: take the kind's engine back to its
			// high-water buffers outside the timer.
			pass(b, len(origins))
			b.ReportAllocs()
			b.ResetTimer()
			pass(b, b.N)
		})
	}
}

// BenchmarkPointRelianceFullScale measures one cold hierarchy-free top-10
// reliance query — what a /v1/reliance cache miss costs below the serving
// layer — over BenchmarkPointReachFullScale's origins, on one P with a
// warmed pool. The pooled scalar simulator resets and scans only what the
// origin's propagation touched, so ns/op tracks what the origins reach.
func BenchmarkPointRelianceFullScale(b *testing.B) {
	e := fullScaleEnv(b)
	origins := pointOrigins(e.In2020.Graph)
	ctx := context.Background()
	pass := func(b *testing.B, n int) {
		for i := 0; i < n; i++ {
			if _, err := e.M2020.TopRelianceCtx(ctx, origins[i%len(origins)], core.HierarchyFree, 10); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run(core.HierarchyFree.String(), func(b *testing.B) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		pass(b, len(origins))
		b.ReportAllocs()
		b.ResetTimer()
		pass(b, b.N)
	})
}

// pointOrigins draws the point benchmarks' 256 uniform origins from a fixed
// seed.
func pointOrigins(g *astopo.Graph) []astopo.ASN {
	rng := rand.New(rand.NewSource(1))
	origins := make([]astopo.ASN, 256)
	for i := range origins {
		origins[i] = g.ASNAt(rng.Intn(g.NumASes()))
	}
	return origins
}
