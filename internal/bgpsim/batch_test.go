package bgpsim

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"flatnet/internal/astopo"
)

// scalarMask builds the per-origin exclusion mask equivalent to what
// BatchReach composes for one lane: base, minus the origin, plus (when
// maskProviders) the origin's transit providers.
func scalarMask(g *astopo.Graph, base []bool, o int, maskProviders bool) []bool {
	if base == nil && !maskProviders {
		return nil
	}
	mask := make([]bool, g.NumASes())
	copy(mask, base)
	mask[o] = false
	if maskProviders {
		for _, p := range g.ProvidersOf(o) {
			mask[p] = true
		}
	}
	return mask
}

// The batch engine must return, for every origin and every mask shape,
// exactly the count the scalar Simulator computes over the equivalent
// per-origin mask.
func TestBatchCountsMatchScalar(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomTopology(rng)
		g.Freeze()
		n := g.NumASes()

		var base []bool
		if rng.Intn(3) > 0 {
			base = make([]bool, n)
			for i := range base {
				if rng.Intn(5) == 0 {
					base[i] = true
				}
			}
		}
		maskProviders := rng.Intn(2) == 1

		br := NewBatchReach(g)
		sim := New(g)
		out := make([]int, BatchLanes)
		origins := make([]int32, 0, BatchLanes)
		for lo := 0; lo < n; lo += BatchLanes {
			hi := lo + BatchLanes
			if hi > n {
				hi = n
			}
			origins = origins[:0]
			for i := lo; i < hi; i++ {
				origins = append(origins, int32(i))
			}
			if err := br.Counts(origins, base, maskProviders, out); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			for k, o := range origins {
				want, err := sim.ReachabilityCount(Config{
					Origin:  g.ASNAt(int(o)),
					Exclude: scalarMask(g, base, int(o), maskProviders),
				})
				if err != nil {
					t.Fatalf("seed %d origin %d: %v", seed, o, err)
				}
				if out[k] != want {
					t.Fatalf("seed %d origin AS%d (maskProviders=%v, base=%v): batch=%d scalar=%d",
						seed, g.ASNAt(int(o)), maskProviders, base != nil, out[k], want)
				}
			}
		}
	}
}

// Stubs are sinks in stage C too: after a count, stage C's worklist (left
// in b.queue) holds only ASes with customers, while the counts still
// include every stub that took a provider route.
func TestBatchReachQueueHoldsOnlyRelayers(t *testing.T) {
	queued := 0
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomTopology(rng)
		g.Freeze()
		n := g.NumASes()
		var base []bool
		if rng.Intn(2) == 0 {
			base = make([]bool, n)
			for i := range base {
				base[i] = rng.Intn(5) == 0
			}
		}
		maskProviders := rng.Intn(2) == 0
		br := NewBatchReach(g)
		sim := New(g)
		out := make([]int, 1)
		for o := int32(0); o < int32(n); o++ {
			if err := br.Counts([]int32{o}, base, maskProviders, out); err != nil {
				t.Fatal(err)
			}
			want, err := sim.ReachabilityCount(Config{
				Origin:  g.ASNAt(int(o)),
				Exclude: scalarMask(g, base, int(o), maskProviders),
			})
			if err != nil {
				t.Fatal(err)
			}
			if out[0] != want {
				t.Fatalf("seed %d origin AS%d: batch=%d scalar=%d", seed, g.ASNAt(int(o)), out[0], want)
			}
			for _, v := range br.queue {
				if !g.HasCustomers(int(v)) {
					t.Fatalf("seed %d origin AS%d: customerless AS%d on stage C's worklist", seed, g.ASNAt(int(o)), g.ASNAt(int(v)))
				}
			}
			queued += len(br.queue)
		}
	}
	if queued == 0 {
		t.Fatal("stage C never queued anything")
	}
}

func TestBatchCountsValidation(t *testing.T) {
	g := astopo.NewGraph(0, 0)
	g.MustAddLink(1, 2, astopo.P2C)
	g.MustAddLink(2, 3, astopo.P2C)
	br := NewBatchReach(g)
	out := make([]int, BatchLanes+1)

	if err := br.Counts(nil, nil, true, nil); err != nil {
		t.Errorf("empty origins: %v", err)
	}
	tooMany := make([]int32, BatchLanes+1)
	if err := br.Counts(tooMany, nil, true, out); err == nil {
		t.Error("expected error for > BatchLanes origins")
	}
	if err := br.Counts([]int32{0, 1}, nil, true, out[:1]); err == nil {
		t.Error("expected error for short out")
	}
	if err := br.Counts([]int32{0}, make([]bool, 1), true, out); err == nil {
		t.Error("expected error for wrong base length")
	}
	if err := br.Counts([]int32{int32(g.NumASes())}, nil, true, out); err == nil {
		t.Error("expected error for out-of-range origin")
	}
}

// A steady-state batch block must not allocate: all word buffers and the
// worklist are high-water-reused across calls.
func TestBatchCountsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector's shadow allocations break AllocsPerRun")
	}
	rng := rand.New(rand.NewSource(42))
	g := randomTopology(rng)
	g.Freeze()
	n := g.NumASes()
	base := make([]bool, n)
	base[n-1] = true

	br := NewBatchReach(g)
	origins := make([]int32, 0, BatchLanes)
	for i := 0; i < n && i < BatchLanes; i++ {
		origins = append(origins, int32(i))
	}
	out := make([]int, len(origins))
	// Warm the worklist's high-water capacity.
	if err := br.Counts(origins, base, true, out); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := br.Counts(origins, base, true, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state batch block allocated %.1f times per run, want 0", allocs)
	}
}

// One block whose lanes reach more ASes than the count's vertical counter
// holds between flushes (1<<countPlanes - 1 words): three hubs over 40,000
// leaves, hub 1 peering with hubs 2 and 3 but those two not with each
// other, so lanes under different hubs reach different totals. Every lane
// must still equal the scalar count, with and without provider masking.
func TestBatchCountsFlushMidBlock(t *testing.T) {
	const leaves = 40000
	g := astopo.NewGraph(leaves+3, leaves+16)
	hub := [3]astopo.ASN{1, 2, 3}
	g.MustAddLink(hub[0], hub[1], astopo.P2P)
	g.MustAddLink(hub[0], hub[2], astopo.P2P)
	for i := 0; i < leaves; i++ {
		leaf := astopo.ASN(100 + i)
		g.MustAddLink(hub[i%3], leaf, astopo.P2C)
		if i%7 == 0 {
			g.MustAddLink(hub[(i+1)%3], leaf, astopo.P2C) // multihomed
		}
	}
	g.Freeze()
	n := g.NumASes()
	origins := make([]int32, 0, BatchLanes)
	for _, a := range hub {
		i, _ := g.Index(a)
		origins = append(origins, int32(i))
	}
	for k := 0; len(origins) < BatchLanes; k++ {
		i, _ := g.Index(astopo.ASN(100 + 613*k%leaves))
		origins = append(origins, int32(i))
	}
	base := make([]bool, n)
	for i := 0; i < n; i += 11 {
		base[i] = true
	}
	br := NewBatchReach(g)
	sim := New(g)
	out := make([]int, BatchLanes)
	for _, tc := range []struct {
		base          []bool
		maskProviders bool
	}{{nil, false}, {base, true}, {base, false}} {
		if err := br.Counts(origins, tc.base, tc.maskProviders, out); err != nil {
			t.Fatal(err)
		}
		most := 0
		for k, o := range origins {
			want, err := sim.ReachabilityCount(Config{Origin: g.ASNAt(int(o)), Exclude: scalarMask(g, tc.base, int(o), tc.maskProviders)})
			if err != nil {
				t.Fatal(err)
			}
			if out[k] != want {
				t.Fatalf("lane %d (AS%d, base=%v, maskProviders=%v): batch=%d scalar=%d",
					k, g.ASNAt(int(o)), tc.base != nil, tc.maskProviders, out[k], want)
			}
			most = max(most, out[k])
		}
		if most < 1<<countPlanes {
			t.Fatalf("widest lane reaches %d ASes: the block never filled the counter", most)
		}
	}
}

// A count canceled before stage A, after stage A or after stage B leaves
// the engine reusable: the next block on it, over different origins and a
// different base, equals a fresh engine's.
func TestCountsCtxCanceledMidStageThenReuse(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomTopology(rng)
		g.Freeze()
		n := g.NumASes()
		base := make([]bool, n)
		for i := range base {
			base[i] = rng.Intn(6) == 0
		}
		all := make([]int32, n)
		for i := range all {
			all[i] = int32(i)
		}
		next := all[rng.Intn(n):]
		want := make([]int, len(next))
		if err := NewBatchReach(g).Counts(next, nil, true, want); err != nil {
			t.Fatal(err)
		}
		br := NewBatchReach(g)
		got := make([]int, n)
		canceled := 0
		for after := 1; ; after++ {
			// Err call 1 is CountsCtx's entry check; calls 2, 3 and 4 open
			// stages A, B and C.
			err := br.CountsCtx(&countdownCtx{Context: context.Background(), after: after}, all, base, rng.Intn(2) == 0, got)
			if err == nil {
				break
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("seed %d after %d checks: err = %v, want context.Canceled", seed, after, err)
			}
			canceled++
			if err := br.Counts(next, nil, true, got); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got[:len(next)], want) {
				t.Fatalf("seed %d canceled after %d checks: reused engine %v, fresh engine %v", seed, after, got[:len(next)], want)
			}
		}
		if canceled != 3 {
			t.Fatalf("seed %d: canceled at %d stage boundaries, want 3", seed, canceled)
		}
	}
}

// scalarUnreached is the oracle for one lane of UnreachedCtx: the ASes a
// scalar run over the lane's mask leaves without a route, the masked ASes
// and the origin excepted, in index order.
func scalarUnreached(t *testing.T, sim *Simulator, g *astopo.Graph, base []bool, o int, maskProviders bool) []int32 {
	t.Helper()
	mask := scalarMask(g, base, o, maskProviders)
	res, err := sim.Run(Config{Origin: g.ASNAt(o), Exclude: mask})
	if err != nil {
		t.Fatal(err)
	}
	var out []int32
	for i, c := range res.Class {
		if c == ClassNone && (mask == nil || !mask[i]) && i != o {
			out = append(out, int32(i))
		}
	}
	return out
}

// Every lane's unreached list is the scalar Simulator's, for every origin
// and mask shape, over full and partial blocks with repeated origins.
func TestBatchUnreachedMatchesScalar(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomTopology(rng)
		g.Freeze()
		n := g.NumASes()
		var base []bool
		if rng.Intn(3) > 0 {
			base = make([]bool, n)
			for i := range base {
				base[i] = rng.Intn(5) == 0
			}
		}
		maskProviders := rng.Intn(2) == 1
		br := NewBatchReach(g)
		sim := New(g)
		out := make([][]int32, BatchLanes)
		for round := 0; round < 3; round++ {
			origins := make([]int32, 1+rng.Intn(BatchLanes))
			for k := range origins {
				origins[k] = int32(rng.Intn(n))
			}
			for k := range out {
				out[k] = out[k][:0]
			}
			if err := br.UnreachedCtx(context.Background(), origins, base, maskProviders, out); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			for k, o := range origins {
				if want := scalarUnreached(t, sim, g, base, int(o), maskProviders); !slices.Equal(out[k], want) {
					t.Fatalf("seed %d round %d lane %d origin AS%d (maskProviders=%v, base=%v): batch %v, scalar %v",
						seed, round, k, g.ASNAt(int(o)), maskProviders, base != nil, out[k], want)
				}
			}
			for k := len(origins); k < BatchLanes; k++ {
				if len(out[k]) != 0 {
					t.Fatalf("seed %d: lane %d holds no origin but lists %v", seed, k, out[k])
				}
			}
		}
	}
}

// An UnreachedCtx canceled at each stage boundary leaves the engine clean:
// the next count and the next unreached lists are a fresh engine's.
func TestUnreachedCtxCanceledMidStageThenReuse(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomTopology(rng)
		g.Freeze()
		n := g.NumASes()
		base := make([]bool, n)
		for i := range base {
			base[i] = rng.Intn(6) == 0
		}
		origins := make([]int32, min(n, BatchLanes))
		for i := range origins {
			origins[i] = int32(i)
		}
		wantCounts := make([]int, len(origins))
		wantUn := make([][]int32, BatchLanes)
		fresh := NewBatchReach(g)
		if err := fresh.Counts(origins, base, true, wantCounts); err != nil {
			t.Fatal(err)
		}
		if err := fresh.UnreachedCtx(context.Background(), origins, base, true, wantUn); err != nil {
			t.Fatal(err)
		}
		br := NewBatchReach(g)
		canceled := 0
		for after := 1; ; after++ {
			// Err call 1 is UnreachedCtx's entry check; calls 2, 3 and 4
			// open stages A, B and C.
			got := make([][]int32, BatchLanes)
			err := br.UnreachedCtx(&countdownCtx{Context: context.Background(), after: after}, origins, base, true, got)
			if err == nil {
				break
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("seed %d after %d checks: err = %v, want context.Canceled", seed, after, err)
			}
			canceled++
			counts := make([]int, len(origins))
			if err := br.Counts(origins, base, true, counts); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(counts, wantCounts) {
				t.Fatalf("seed %d canceled after %d checks: reused engine counts %v, fresh %v", seed, after, counts, wantCounts)
			}
			got = make([][]int32, BatchLanes)
			if err := br.UnreachedCtx(context.Background(), origins, base, true, got); err != nil {
				t.Fatal(err)
			}
			for k := range origins {
				if !slices.Equal(got[k], wantUn[k]) {
					t.Fatalf("seed %d canceled after %d checks, lane %d: reused engine %v, fresh %v", seed, after, k, got[k], wantUn[k])
				}
			}
		}
		if canceled != 3 {
			t.Fatalf("seed %d: canceled at %d stage boundaries, want 3", seed, canceled)
		}
	}
}
