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
// any warm machine. Each iteration opens the file, wires an
// experiments.Env, and answers one hierarchy-free reachability query:
//
//	mmap    zero-copy Reader (snapshot.Open + NewEnvFromSnapshot); the
//	        topology arenas are served straight from the mapping
//	decode  eager full decode of the same file (snapshot.ReadFile +
//	        NewEnvFromWorld): every section verified and copied out
//
// The snapshot carries both years' peering plans and the 2020 rDNS corpus
// alongside the topologies, as a production `flatnet snapshot build` file
// does. The decode path parses all of it up front; the mmap path leaves
// the pointer-shaped cold sections untouched in the mapping, since a
// reachability query never needs them.
func BenchmarkSnapshotLoad(b *testing.B) {
	e := fullScaleEnv(b)
	if _, err := e.Plan2020(); err != nil {
		b.Fatal(err)
	}
	if _, err := e.Plan2015(); err != nil {
		b.Fatal(err)
	}
	if _, err := e.RDNS2020(); err != nil {
		b.Fatal(err)
	}
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
	firstQuery := func(b *testing.B, env *experiments.Env) {
		if _, err := env.M2020.Reachability(google, core.HierarchyFree); err != nil {
			b.Fatal(err)
		}
	}
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
			firstQuery(b, env)
			rd.Close()
		}
		reportNsPerAS(b, nASes)
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(st.Size())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w, err := snapshot.ReadFile(path)
			if err != nil {
				b.Fatal(err)
			}
			env, err := experiments.NewEnvFromWorld(w)
			if err != nil {
				b.Fatal(err)
			}
			firstQuery(b, env)
		}
		reportNsPerAS(b, nASes)
	})
}
