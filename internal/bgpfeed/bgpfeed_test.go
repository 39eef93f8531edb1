package bgpfeed

import (
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"flatnet/internal/astopo"
	"flatnet/internal/bgpsim"
	"flatnet/internal/topogen"
)

// walk runs the VP path walker on a destination sweep of its own.
func walk(g *astopo.Graph, vps []astopo.ASN, visit func(w int) func(oi int, paths [][]astopo.ASN) error) error {
	v, err := walker(g, vps, visit)
	if err != nil {
		return err
	}
	return bgpsim.ForEachOrigin(g, v)
}

// testWorld generates a 2020 preset and samples nVPs of its transit and
// Tier-2 ASes as vantage points, as with real collectors.
func testWorld(t testing.TB, scale float64, nVPs int) (*topogen.Internet, []astopo.ASN) {
	t.Helper()
	in, err := topogen.Generate(topogen.Internet2020(scale))
	if err != nil {
		t.Fatal(err)
	}
	var cands []astopo.ASN
	for i, a := range in.Graph.ASes() {
		switch in.ClassAt(i) {
		case topogen.ClassTransit, topogen.ClassTier2:
			cands = append(cands, a)
		}
	}
	return in, SampleVPs(cands, nVPs, 1)
}

func TestCollectPathsValid(t *testing.T) {
	in, vps := testWorld(t, 0.01425, 10)
	origins := in.Graph.ASes()
	var checked atomic.Int64
	err := walk(in.Graph, vps, func(int) func(int, [][]astopo.ASN) error {
		return func(oi int, paths [][]astopo.ASN) error {
			if len(paths) != len(vps) {
				return fmt.Errorf("origin AS%d: %d paths for %d VPs", origins[oi], len(paths), len(vps))
			}
			for k, p := range paths {
				if p == nil {
					continue
				}
				if len(p) < 2 || p[0] != vps[k] || p[len(p)-1] != origins[oi] {
					return fmt.Errorf("VP AS%d, origin AS%d: path %v", vps[k], origins[oi], p)
				}
				for i := 1; i < len(p); i++ {
					if _, ok := in.Graph.HasLink(p[i-1], p[i]); !ok {
						return fmt.Errorf("path %v uses nonexistent link", p)
					}
				}
			}
			checked.Add(1)
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := int(checked.Load()); n != len(origins) {
		t.Errorf("visited %d origins, want %d", n, len(origins))
	}
}

// The central bias: feeds see nearly all links of the hierarchy but only a
// small fraction of the clouds' peerings (§4.1 reports ~10-90% missed
// depending on the cloud).
func TestFeedMissesCloudPeering(t *testing.T) {
	in, vps := testWorld(t, 0.02138, 30)
	feed, err := Collect(in.Graph, vps)
	if err != nil {
		t.Fatal(err)
	}
	google := in.Clouds["Google"]
	truthN := len(in.Graph.Peers(google)) + len(in.Graph.Providers(google))
	feedN := feed.Degree(google)
	frac := float64(feedN) / float64(truthN)
	t.Logf("Google: feed sees %d of %d neighbors (%.2f)", feedN, truthN, frac)
	if frac > 0.45 {
		t.Errorf("feed sees %.2f of Google's neighbors; expected a large blind spot", frac)
	}
	// But the hierarchy is well covered: Tier-1 to Tier-2 links.
	t1 := astopo.ASN(3356)
	truthT1 := in.Graph.Degree(t1)
	feedT1 := feed.Degree(t1)
	fracT1 := float64(feedT1) / float64(truthT1)
	t.Logf("Level 3: feed sees %d of %d neighbors (%.2f)", feedT1, truthT1, fracT1)
	if fracT1 < frac {
		t.Errorf("feed covers Level 3 (%.2f) worse than Google (%.2f)", fracT1, frac)
	}
	// c2p coverage overall must far exceed p2p coverage.
	cover := map[astopo.Rel]float64{}
	for _, rel := range []astopo.Rel{astopo.P2P, astopo.P2C} {
		var tot, vis int
		for _, l := range in.Graph.Links() {
			if l.Rel != rel {
				continue
			}
			tot++
			if _, ok := feed.HasLink(l.A, l.B); ok {
				vis++
			}
		}
		cover[rel] = float64(vis) / float64(tot)
	}
	t.Logf("visibility: c2p=%.2f p2p=%.2f", cover[astopo.P2C], cover[astopo.P2P])
	if cover[astopo.P2C] < 0.8 {
		t.Errorf("c2p visibility %.2f, want >= 0.8", cover[astopo.P2C])
	}
	if cover[astopo.P2P] > cover[astopo.P2C]/2 {
		t.Errorf("p2p visibility %.2f not clearly below c2p %.2f", cover[astopo.P2P], cover[astopo.P2C])
	}
}

func TestCollectErrors(t *testing.T) {
	in, _ := testWorld(t, 0.01425, 2)
	if _, err := Collect(in.Graph, []astopo.ASN{999999999}); err == nil {
		t.Error("unknown VP accepted")
	}
}

// A VP sees its own neighbors toward the origins it routes through them,
// and every link of the feed graph carries the ground-truth relationship.
func TestVisibleNeighbors(t *testing.T) {
	in, vps := testWorld(t, 0.01425, 5)
	feed, err := Collect(in.Graph, vps)
	if err != nil {
		t.Fatal(err)
	}
	if feed.Degree(vps[0]) == 0 {
		t.Error("VP has no visible neighbors")
	}
	for _, l := range feed.Links() {
		if rel, ok := in.Graph.HasLink(l.A, l.B); !ok || rel != l.Rel {
			t.Fatalf("feed link %v: ground truth has %v (present %v)", l, rel, ok)
		}
	}
	links := feed.Links()
	for i := 1; i < len(links); i++ {
		if a, b := links[i-1], links[i]; a.A > b.A || a.A == b.A && a.B >= b.B {
			t.Fatalf("feed links out of (A, B) order at %d: %v then %v", i, a, b)
		}
	}
}

// The walk's allocations are per worker, not per VP or per path: with a
// no-op visitor, 40 VPs cost what 10 do.
func TestWalkAllocsIndependentOfVPs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates")
	}
	in, vps := testWorld(t, 0.01425, 40)
	noop := func(int) func(int, [][]astopo.ASN) error {
		return func(int, [][]astopo.ASN) error { return nil }
	}
	allocs := func(vps []astopo.ASN) float64 {
		return testing.AllocsPerRun(3, func() {
			if err := walk(in.Graph, vps, noop); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(vps[:10]), allocs(vps); few != many {
		t.Errorf("walk allocates %.1f times for 10 VPs, %.1f for 40", few, many)
	}
}

// The feed graph does not depend on how many workers share the sweep or on
// the visitors beside it: Collect alone, and Collector next to the
// WriteMRT walk, fold the same links with the same orientation under 1, 2
// and 8 workers.
func TestCollectIndependentOfWorkers(t *testing.T) {
	in, vps := testWorld(t, 0.01425, 10)
	var want []astopo.Link
	for _, procs := range []int{1, 2, 8} {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		alone, err := Collect(in.Graph, vps)
		if err != nil {
			t.Fatal(err)
		}
		collect, graph, err := Collector(in.Graph, vps)
		if err != nil {
			t.Fatal(err)
		}
		other, err := walker(in.Graph, vps[:3], func(int) func(int, [][]astopo.ASN) error {
			return func(int, [][]astopo.ASN) error { return nil }
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := bgpsim.ForEachOrigin(in.Graph, other, collect); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = alone.Links()
		}
		for how, g := range map[string]*astopo.Graph{"alone": alone, "beside another visitor": graph()} {
			if got := g.Links(); !slices.Equal(got, want) {
				t.Errorf("GOMAXPROCS=%d, %s: %d feed links differ from Collect's %d under one worker", procs, how, len(got), len(want))
			}
		}
	}
}

// Metamorphic: adding VPs only adds sightings. VantagePoints(in, n) is a
// prefix of one permutation and each VP's tie-breaking salt is its
// position, so 10 VPs walk exactly the paths the first 10 of 40 walk: the
// 10-VP feed's links, with their relationships, are a subset of the
// 40-VP feed's.
func TestFeedGrowsWithVPs(t *testing.T) {
	in, err := topogen.Generate(topogen.Internet2020(0.01425))
	if err != nil {
		t.Fatal(err)
	}
	few, many := VantagePoints(in, 10), VantagePoints(in, 40)
	if !slices.Equal(few, many[:len(few)]) {
		t.Fatalf("10 VPs %v are not a prefix of 40 VPs %v", few, many)
	}
	small, err := Collect(in.Graph, few)
	if err != nil {
		t.Fatal(err)
	}
	large, err := Collect(in.Graph, many)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range small.Links() {
		if rel, ok := large.HasLink(l.A, l.B); !ok || rel != l.Rel {
			t.Errorf("10-VP feed link %v: 40-VP feed has %v (present %v)", l, rel, ok)
		}
	}
	if small.NumLinks() >= large.NumLinks() {
		t.Errorf("10 VPs see %d links, 40 see %d: no growth", small.NumLinks(), large.NumLinks())
	}
}

func TestSampleVPsDeterministic(t *testing.T) {
	c := []astopo.ASN{1, 2, 3, 4, 5, 6}
	a := SampleVPs(c, 3, 9)
	b := SampleVPs(c, 3, 9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic")
		}
	}
	if got := SampleVPs(c, 100, 9); len(got) != len(c) {
		t.Errorf("oversample returned %d", len(got))
	}
	for _, n := range []int{0, -1} {
		if got := SampleVPs(c, n, 9); len(got) != 0 {
			t.Errorf("SampleVPs(n=%d) returned %v, want none", n, got)
		}
	}
}
