package flatnet_bench

import (
	"os"
	"testing"

	"flatnet/internal/core"
	"flatnet/internal/experiments"
	"flatnet/internal/snapshot"
)

// BenchmarkEnvColdStart measures the full cold-start path of the default
// environment: generate both presets and prewarm every lazy artifact the
// experiment registry consumes (plans, rDNS, all four clouds' 2020 trace
// corpora). The trace corpora dominate; the builds overlap and all four
// clouds share one propagation sweep.
func BenchmarkEnvColdStart(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e, err := experiments.NewEnv(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if err := e.Prewarm(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotLoad measures time-to-first-query from a snapshot of
// the paper's full-scale world (scale 1.0: 69,488 + 51,801 ASes),
// regardless of FLATNET_BENCH_SCALE — the `flatnet run -snapshot` /
// `flatnetd -snapshot` cold-start path, with the file page-cached as on
// any warm machine. Each iteration opens the file on the zero-copy Reader
// (snapshot.Open + NewEnvFromSnapshot), whose topology arenas are served
// straight from the mapping, and answers one hierarchy-free reachability
// query.
func BenchmarkSnapshotLoad(b *testing.B) {
	e := fullScaleEnv(b)
	path := b.TempDir() + "/world.snap"
	if err := snapshot.WriteFile(path, e.World()); err != nil {
		b.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	nASes := e.In2020.Graph.NumASes()
	google := e.In2020.Clouds["Google"]
	b.Run("mmap", func(b *testing.B) {
		b.SetBytes(st.Size())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rd, err := snapshot.Open(path)
			if err != nil {
				b.Fatal(err)
			}
			env, err := experiments.NewEnvFromSnapshot(rd)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := env.M2020.Reachability(google, core.HierarchyFree); err != nil {
				b.Fatal(err)
			}
			rd.Close()
		}
		reportNsPerAS(b, nASes)
	})
}
