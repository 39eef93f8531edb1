package bgpsim

import (
	"context"
	"errors"
	"testing"

	"flatnet/internal/astopo"
)

// ctxFixture is the Fig.-1-style topology used across the package tests.
func ctxFixture(t *testing.T) *astopo.Graph {
	t.Helper()
	g := astopo.NewGraph(0, 0)
	for _, l := range []struct {
		a, b astopo.ASN
		r    astopo.Rel
	}{
		{1, 100, astopo.P2C},
		{100, 2, astopo.P2P},
		{100, 3, astopo.P2P},
		{2, 6, astopo.P2C},
		{3, 7, astopo.P2C},
		{1, 2, astopo.P2P},
	} {
		if err := g.AddLink(l.a, l.b, l.r); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestReachabilityCountCtxCanceledBeforeStart(t *testing.T) {
	g := ctxFixture(t)
	sim := New(g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sim.ReachabilityCountCtx(ctx, Config{Origin: 100}); !errors.Is(err, context.Canceled) {
		t.Fatalf("ReachabilityCountCtx on canceled ctx: err = %v, want context.Canceled", err)
	}
	// The simulator must remain usable after an aborted run.
	n, err := sim.ReachabilityCount(Config{Origin: 100})
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("ReachabilityCount after aborted run = %d, want 5", n)
	}
}

func TestTrialCtxCanceled(t *testing.T) {
	g := ctxFixture(t)
	sw, err := NewLeakSweep(g, Config{Origin: 100})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sw.TrialCtx(ctx, 7, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("TrialCtx on canceled ctx: err = %v, want context.Canceled", err)
	}
	// Still usable without a context afterwards.
	tr, err := sw.Trial(7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Leaker != 7 {
		t.Fatalf("Trial leaker = %d, want 7", tr.Leaker)
	}
}

func TestSweepTrialsMatchesSequential(t *testing.T) {
	g := ctxFixture(t)
	sw, err := NewLeakSweep(g, Config{Origin: 100})
	if err != nil {
		t.Fatal(err)
	}
	leakers := []astopo.ASN{2, 3, 6, 7}
	got, err := sw.Trials(context.Background(), leakers, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := sw.Clone()
	for i, l := range leakers {
		want, err := ref.Trial(l, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Fatalf("Trials[%d] = %+v, want %+v", i, got[i], want)
		}
	}
}

func TestCountsCtxCanceled(t *testing.T) {
	g := ctxFixture(t)
	br := NewBatchReach(g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := make([]int, 1)
	if err := br.CountsCtx(ctx, []int32{0}, nil, false, out); !errors.Is(err, context.Canceled) {
		t.Fatalf("CountsCtx on canceled ctx: err = %v, want context.Canceled", err)
	}
	// Still usable without a context afterwards.
	oi, _ := g.Index(100)
	if err := br.Counts([]int32{int32(oi)}, nil, false, out); err != nil {
		t.Fatal(err)
	}
	if out[0] != 5 {
		t.Fatalf("Counts after aborted call = %d, want 5", out[0])
	}
}
