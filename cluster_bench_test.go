package flatnet_bench

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"flatnet/internal/cluster"
	"flatnet/internal/core"
	"flatnet/internal/serve"
)

// BenchmarkClusterSweep measures the sharded full-scale all-AS sweep
// through a coordinator Pool fanning out to N in-process flatnetd workers
// over real loopback HTTP — the whole cluster path: shard partitioning,
// coalesced binary-frame round trips, and merge. Workers run with MaxConcurrent=1 (one
// shard per slot, the cluster's backpressure contract) and CacheSize=1 so
// every iteration recomputes its shards instead of replaying the result
// cache. On a multi-core host the ns/AS metric drops roughly with worker
// count; on a single-core host the series instead prices the coordination
// overhead, since all workers share one CPU.
func BenchmarkClusterSweep(b *testing.B) {
	e := fullScaleEnv(b)
	ds := core.Dataset{Graph: e.In2020.Graph, Tier1: e.In2020.Tier1, Tier2: e.In2020.Tier2}
	n := ds.Graph.NumASes()

	var wantOnce sync.Once
	var want []int
	expected := func(b *testing.B) []int {
		wantOnce.Do(func() {
			var err error
			want, err = e.M2020.ReachabilityAll(core.HierarchyFree)
			if err != nil {
				b.Fatal(err)
			}
		})
		return want
	}

	for _, nWorkers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", nWorkers), func(b *testing.B) {
			// Hedging stays effectively off: it exists for straggler
			// tolerance, and duplicate shards would distort a throughput
			// measurement on shared CPUs. Health probing is pinned off for
			// the same reason: with 4–8 workers saturating a shared CPU, a
			// 1s probe can time out and demote a perfectly alive worker,
			// and a demotion mid-fan-out permanently parks that worker's
			// puller goroutines for the rest of the sweep — the workers=4/8
			// runs used to swing 1.2–5.7s from exactly that collapse.
			pool := cluster.NewPool(cluster.PoolConfig{
				World:          "bench",
				HedgeDelay:     30 * time.Second,
				HealthInterval: time.Hour,
				ProbeTimeout:   30 * time.Second,
			})
			defer pool.Close()
			for i := 0; i < nWorkers; i++ {
				w, err := serve.New(serve.Config{Dataset: ds, MaxConcurrent: 1, CacheSize: 1})
				if err != nil {
					b.Fatal(err)
				}
				addr, err := w.Start("127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				defer func() {
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					defer cancel()
					_ = w.Shutdown(ctx)
				}()
				pool.Register("http://"+addr.String(), 1)
			}
			ctx := context.Background()
			counts, err := pool.SweepCounts(ctx, core.HierarchyFree.String(), n)
			if err != nil {
				b.Fatal(err)
			}
			for i, c := range expected(b) {
				if counts[i] != c {
					b.Fatalf("cluster sweep diverges at index %d: %d != %d", i, counts[i], c)
				}
			}
			// Second warm pass: the verification sweep above built each
			// worker's lazy state (engine pools, HTTP keep-alives) on
			// first touch, so only a second full fan-out
			// runs every shard at steady state. A GC fence then keeps the
			// warmup's garbage from being collected inside the timed loop —
			// the two together pin the per-op work to exactly one
			// steady-state sweep and stop the first iterations from
			// dominating short -benchtime runs.
			if _, err := pool.SweepCounts(ctx, core.HierarchyFree.String(), n); err != nil {
				b.Fatal(err)
			}
			runtime.GC()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pool.SweepCounts(ctx, core.HierarchyFree.String(), n); err != nil {
					b.Fatal(err)
				}
			}
			reportNsPerAS(b, n)
		})
	}
}
