package bgpsim

import (
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"flatnet/internal/astopo"
)

// Fig. 5 of the paper: t receives three tied-best paths to o —
// x→u→o, x→v→o, and y→w→o. We realize it with customer routes only:
// u, v, w are providers of o; x is a provider of u and v; y a provider of
// w; t a provider of x and y.
func fig5Graph(t *testing.T) *astopo.Graph {
	const (
		o  = 1
		u  = 2
		v  = 3
		w  = 4
		x  = 5
		y  = 6
		tt = 7
	)
	return mustGraph(t,
		p2c(u, o), p2c(v, o), p2c(w, o),
		p2c(x, u), p2c(x, v), p2c(y, w),
		p2c(tt, x), p2c(tt, y),
	)
}

func TestPathCountsFig5(t *testing.T) {
	g := fig5Graph(t)
	sim := New(g)
	r, err := sim.Run(Config{Origin: 1, TrackNextHops: true})
	if err != nil {
		t.Fatal(err)
	}
	counts, err := r.PathCounts()
	if err != nil {
		t.Fatal(err)
	}
	want := map[astopo.ASN]float64{1: 1, 2: 1, 3: 1, 4: 1, 5: 2, 6: 1, 7: 3}
	for a, wc := range want {
		i, _ := g.Index(a)
		if counts[i] != wc {
			t.Errorf("PathCounts[AS%d] = %v, want %v", a, counts[i], wc)
		}
	}
}

func TestRelianceFig5(t *testing.T) {
	g := fig5Graph(t)
	sim := New(g)
	r, err := sim.Run(Config{Origin: 1, TrackNextHops: true})
	if err != nil {
		t.Fatal(err)
	}
	rely, err := r.Reliance()
	if err != nil {
		t.Fatal(err)
	}
	// Destination t contributes the paper's fractions (x: 2/3; u,v,w,y:
	// 1/3); every AS additionally contributes 1 for itself, and x,y
	// contribute to u,v,w. Full expected values:
	//   t: 1
	//   x: 1 + 2/3          y: 1 + 1/3
	//   u: 1 + (1+2/3)/2    v: same       w: 1 + (1+1/3)
	//   o: 6 (all reachable ASes' paths terminate at o)
	want := map[astopo.ASN]float64{
		7: 1,
		5: 1 + 2.0/3,
		6: 1 + 1.0/3,
		2: 1 + (1+2.0/3/1)/2*1, // placeholder, computed below
	}
	// Compute u precisely: visits(x) = 5/3 split evenly between u and v.
	want[2] = 1 + (5.0/3)/2
	want[3] = 1 + (5.0/3)/2
	want[4] = 1 + 4.0/3
	want[1] = 6
	for a, wv := range want {
		i, _ := g.Index(a)
		if math.Abs(rely[i]-wv) > 1e-12 {
			t.Errorf("Reliance[AS%d] = %v, want %v", a, rely[i], wv)
		}
	}
	// Paper's spot checks: the fraction of t's paths through x is 2/3,
	// through y is 1/3 — visible as rely(x) - own(x) - 0 etc.
	ix, _ := g.Index(5)
	if math.Abs((rely[ix]-1)-2.0/3) > 1e-12 {
		t.Errorf("t's reliance contribution on x = %v, want 2/3", rely[ix]-1)
	}
}

// Reliance mass conservation: summing reliance over all ASes equals the
// total expected path length mass: sum over destinations of
// (expected path node count) = sum_t (E[len]+1).
func TestRelianceMassConservation(t *testing.T) {
	g := fig5Graph(t)
	sim := New(g)
	r, err := sim.Run(Config{Origin: 1, TrackNextHops: true})
	if err != nil {
		t.Fatal(err)
	}
	rely, err := r.Reliance()
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range rely {
		total += v
	}
	// Every destination's path visits Dist+1 nodes (itself through the
	// origin); all of t's tied-best paths here have equal length, so the
	// expectation is exact.
	var want float64
	for i, c := range r.Class {
		if c == ClassNone || int32(i) == r.Origin {
			continue
		}
		want += float64(r.Dist[i] + 1)
	}
	if math.Abs(total-want) > 1e-9 {
		t.Errorf("total reliance mass = %v, want %v", total, want)
	}
}

func TestDAGRequiresTracking(t *testing.T) {
	g := fig5Graph(t)
	sim := New(g)
	r, err := sim.Run(Config{Origin: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.PathCounts(); err == nil {
		t.Error("PathCounts without tracking succeeded")
	}
	if _, err := r.Reliance(); err == nil {
		t.Error("Reliance without tracking succeeded")
	}
}

// containsPath reports whether path (destination first, origin last) is one
// of the tied-best paths of its first element: every consecutive pair must
// be an edge of the next-hop DAG and the last element must be the origin.
func containsPath(r *Result, path []astopo.ASN) (bool, error) {
	if len(path) < 2 {
		return false, errors.New("path must have at least two ASes")
	}
	if last, ok := r.Graph.Index(path[len(path)-1]); !ok || int32(last) != r.Origin {
		return false, nil
	}
	cur, ok := r.Graph.Index(path[0])
	if !ok {
		return false, nil
	}
	for _, next := range path[1:] {
		ni, ok := r.Graph.Index(next)
		if !ok || !slices.Contains(r.NextHops(int32(cur)), int32(ni)) {
			return false, nil
		}
		cur = ni
	}
	return true, nil
}

func TestContainsPath(t *testing.T) {
	g := fig5Graph(t)
	r, err := New(g).Run(Config{Origin: 1, TrackNextHops: true})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		path []astopo.ASN
		want bool
	}{
		{[]astopo.ASN{7, 5, 2, 1}, true},  // t x u o
		{[]astopo.ASN{7, 5, 3, 1}, true},  // t x v o
		{[]astopo.ASN{7, 6, 4, 1}, true},  // t y w o
		{[]astopo.ASN{7, 5, 4, 1}, false}, // t x w o — not a DAG edge
		{[]astopo.ASN{7, 6, 2, 1}, false},
		{[]astopo.ASN{7, 1}, false},        // skips hops
		{[]astopo.ASN{7, 5, 2, 99}, false}, // wrong origin
	}
	for _, c := range cases {
		got, err := containsPath(r, c.path)
		if err != nil {
			t.Fatalf("containsPath(%v): %v", c.path, err)
		}
		if got != c.want {
			t.Errorf("containsPath(%v) = %v, want %v", c.path, got, c.want)
		}
	}
	if _, err := containsPath(r, []astopo.ASN{7}); err == nil {
		t.Error("single-element path accepted")
	}
	// Every enumerated best path is contained.
	ti, _ := g.Index(7)
	for _, p := range bestPaths(r, int32(ti)) {
		if ok, err := containsPath(r, p); err != nil || !ok {
			t.Errorf("enumerated path %v not contained (%v)", p, err)
		}
	}
}

// bestPaths enumerates the tied-best paths from dense index t to the origin
// (destination first, origin last), depth first over the next-hop DAG in
// ascending-ASN order of next hops.
func bestPaths(r *Result, t int32) [][]astopo.ASN {
	if r.Class[t] == ClassNone {
		return nil
	}
	var out [][]astopo.ASN
	var walk func(cur int32, prefix []astopo.ASN)
	walk = func(cur int32, prefix []astopo.ASN) {
		prefix = append(prefix, r.Graph.ASNAt(int(cur)))
		if cur == r.Origin {
			out = append(out, append([]astopo.ASN(nil), prefix...))
			return
		}
		hops := append([]int32(nil), r.NextHops(cur)...)
		sort.Slice(hops, func(i, j int) bool {
			return r.Graph.ASNAt(int(hops[i])) < r.Graph.ASNAt(int(hops[j]))
		})
		for _, h := range hops {
			walk(h, prefix)
		}
	}
	walk(t, nil)
	return out
}

func TestAllBestPathsFig5(t *testing.T) {
	g := fig5Graph(t)
	r, err := New(g).Run(Config{Origin: 1, TrackNextHops: true})
	if err != nil {
		t.Fatal(err)
	}
	// t's three tied-best paths and no others: x→w and y→u are not DAG
	// edges, and no path skips a hop or ends off the origin.
	ti, _ := g.Index(7)
	want := [][]astopo.ASN{{7, 5, 2, 1}, {7, 5, 3, 1}, {7, 6, 4, 1}}
	if got := bestPaths(r, int32(ti)); !reflect.DeepEqual(got, want) {
		t.Errorf("best paths of 7 = %v, want %v", got, want)
	}
	oi, _ := g.Index(1)
	if got := bestPaths(r, int32(oi)); !reflect.DeepEqual(got, [][]astopo.ASN{{1}}) {
		t.Errorf("origin path = %v", got)
	}
	// Counts agree with PathCounts for every AS.
	counts, err := r.PathCounts()
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range g.ASes() {
		if r.Class[i] == ClassNone || int32(i) == r.Origin {
			continue
		}
		if ps := bestPaths(r, int32(i)); float64(len(ps)) != counts[i] {
			t.Errorf("AS%d: %d enumerated paths, PathCounts says %v", a, len(ps), counts[i])
		}
	}
}

// RelianceCtx must reproduce Result.Reliance bit for bit — the served
// reliance bodies are hashed — over masked and unmasked origins of a
// topology large enough that the unstable distance sort leaves its
// insertion-sort regime, and across reuse of one Simulator.
func TestRelianceCtxMatchesResult(t *testing.T) {
	in := genInternet(t, 0.02138)
	g := in.Graph
	n := g.NumASes()
	base := BuildExclude(g, in.Tier1, in.Tier2)
	owned, inplace := New(g), New(g)
	for oi := 0; oi < n; oi += 17 {
		cfg := Config{Origin: g.ASNAt(oi)}
		if oi%2 == 0 {
			mask := append([]bool(nil), base...)
			mask[oi] = false
			cfg.Exclude = mask
		}
		got, _, err := inplace.RelianceCtx(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.TrackNextHops = true
		res, err := owned.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := res.Reliance()
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("origin AS%d: rely[%d] = %v, want %v", cfg.Origin, i, got[i], want[i])
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := inplace.RelianceCtx(ctx, Config{Origin: g.ASNAt(0)}); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled RelianceCtx: err = %v, want context.Canceled", err)
	}
}
