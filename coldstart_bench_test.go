package flatnet_bench

import (
	"os"
	"testing"

	"flatnet/internal/core"
	"flatnet/internal/experiments"
	"flatnet/internal/par"
	"flatnet/internal/snapshot"
)

// BenchmarkEnvColdStart measures the full cold-start path of the default
// environment: generate both presets and build every lazy artifact the
// experiment registry consumes (plans, rDNS, the four clouds' 2020 trace
// campaigns, folded to their facts; no registered experiment reads 2015
// traces). The builds overlap — the trace campaigns, the rDNS synthesis and
// the 2015 plan run concurrently, coalescing on the shared 2020 plan. The
// trace campaigns dominate: all four clouds share one propagation sweep, and
// the fold resolves every traceroute's border under the three §5 stages.
func BenchmarkEnvColdStart(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e, err := experiments.NewEnv(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		builds := []func() error{
			func() error { _, err := e.RDNS2020(); return err },
			func() error { _, err := e.Plan2015(); return err },
			func() error { _, err := e.Traces(2020, "Google", 0); return err },
		}
		if err := par.For(len(builds), len(builds), func(int) func(int) error {
			return func(i int) error { return builds[i]() }
		}); err != nil {
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
