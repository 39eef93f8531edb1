package bgpsim

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"flatnet/internal/astopo"
)

func mustGraph(t *testing.T, links ...astopo.Link) *astopo.Graph {
	t.Helper()
	g := astopo.NewGraph(0, len(links))
	for _, l := range links {
		if err := g.AddLink(l.A, l.B, l.Rel); err != nil {
			t.Fatalf("AddLink(%v): %v", l, err)
		}
	}
	return g
}

func p2c(a, b astopo.ASN) astopo.Link { return astopo.Link{A: a, B: b, Rel: astopo.P2C} }
func p2p(a, b astopo.ASN) astopo.Link { return astopo.Link{A: a, B: b, Rel: astopo.P2P} }

func classOf(t *testing.T, r *Result, a astopo.ASN) (Class, int32) {
	t.Helper()
	i, ok := r.Graph.Index(a)
	if !ok {
		t.Fatalf("AS%d not in graph", a)
	}
	return r.Class[i], r.Dist[i]
}

// Chain: origin 10 is a customer of 20, which is a customer of 30.
func TestRunChain(t *testing.T) {
	g := mustGraph(t, p2c(20, 10), p2c(30, 20))
	sim := New(g)
	r, err := sim.Run(Config{Origin: 10})
	if err != nil {
		t.Fatal(err)
	}
	if c, d := classOf(t, r, 20); c != ClassCustomer || d != 1 {
		t.Errorf("AS20: %v/%d, want customer/1", c, d)
	}
	if c, d := classOf(t, r, 30); c != ClassCustomer || d != 2 {
		t.Errorf("AS30: %v/%d, want customer/2", c, d)
	}
	if c, d := classOf(t, r, 10); c != ClassOrigin || d != 0 {
		t.Errorf("origin: %v/%d", c, d)
	}
	if got := r.Reachable(); got != 2 {
		t.Errorf("Reachable = %d, want 2", got)
	}
}

// Downstream: a customer of the provider hears a provider route; a peer of a
// customer-route holder hears a peer route.
func TestRunClasses(t *testing.T) {
	// 20 is provider of origin 10 and of stub 40; 50 peers with 20.
	g := mustGraph(t, p2c(20, 10), p2c(20, 40), p2p(20, 50))
	sim := New(g)
	r, err := sim.Run(Config{Origin: 10})
	if err != nil {
		t.Fatal(err)
	}
	if c, d := classOf(t, r, 40); c != ClassProvider || d != 2 {
		t.Errorf("AS40: %v/%d, want provider/2", c, d)
	}
	if c, d := classOf(t, r, 50); c != ClassPeer || d != 2 {
		t.Errorf("AS50: %v/%d, want peer/2", c, d)
	}
}

// Valley-free: a route learned from a peer is not exported to another peer
// or to a provider.
func TestValleyFreeExport(t *testing.T) {
	// origin 10 peers with 20; 20 peers with 30; 20 has provider 40 and
	// customer 50.
	g := mustGraph(t, p2p(10, 20), p2p(20, 30), p2c(40, 20), p2c(20, 50))
	sim := New(g)
	r, err := sim.Run(Config{Origin: 10})
	if err != nil {
		t.Fatal(err)
	}
	if c, _ := classOf(t, r, 20); c != ClassPeer {
		t.Fatalf("AS20 class = %v", c)
	}
	if c, _ := classOf(t, r, 30); c != ClassNone {
		t.Errorf("AS30 heard a peer-learned route via a peer (valley): %v", c)
	}
	if c, _ := classOf(t, r, 40); c != ClassNone {
		t.Errorf("AS40 heard a peer-learned route via a customer's provider export (valley): %v", c)
	}
	if c, d := classOf(t, r, 50); c != ClassProvider || d != 2 {
		t.Errorf("AS50: %v/%d, want provider/2 (peer routes are exported to customers)", c, d)
	}
}

// Gao-Rexford preference: class dominates path length.
func TestClassBeatsLength(t *testing.T) {
	// Origin 10. Provider route to 5: 20 provider of 10, 20 provider of 5
	// (length 2, class provider). Peer route to 5: 10 customer of 30, 30
	// customer of 31, 5 peers with 31 (5's peer 31 holds a customer route
	// of length 2, so 5's peer route has length 3).
	g := mustGraph(t,
		p2c(20, 10), p2c(20, 5),
		p2c(30, 10), p2c(31, 30), p2p(31, 5),
	)
	sim := New(g)
	r, err := sim.Run(Config{Origin: 10})
	if err != nil {
		t.Fatal(err)
	}
	if c, d := classOf(t, r, 5); c != ClassPeer || d != 3 {
		t.Errorf("AS5: %v/%d, want peer/3 (peer class preferred over shorter provider route)", c, d)
	}
}

// Within a class, shorter paths win and ties are kept.
func TestTiedNextHops(t *testing.T) {
	// Origin 10 has two providers 20, 21; both are customers of 30.
	g := mustGraph(t, p2c(20, 10), p2c(21, 10), p2c(30, 20), p2c(30, 21))
	sim := New(g)
	r, err := sim.Run(Config{Origin: 10, TrackNextHops: true})
	if err != nil {
		t.Fatal(err)
	}
	i30, _ := g.Index(30)
	if hops := r.NextHops(int32(i30)); len(hops) != 2 {
		t.Fatalf("AS30 next hops = %v, want 2 tied", hops)
	}
	if c, d := classOf(t, r, 30); c != ClassCustomer || d != 2 {
		t.Errorf("AS30: %v/%d", c, d)
	}
}

// Exclusion masks remove ASes entirely: they neither receive nor forward.
func TestExcludeMask(t *testing.T) {
	// 10 -> provider 20 -> provider 30; 10 peers 40; 40 provider of 41.
	g := mustGraph(t, p2c(20, 10), p2c(30, 20), p2p(10, 40), p2c(40, 41))
	sim := New(g)
	mask := BuildExclude(g, astopo.NewASSet(20))
	r, err := sim.Run(Config{Origin: 10, Exclude: mask})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []astopo.ASN{20, 30} {
		if c, _ := classOf(t, r, a); c != ClassNone {
			t.Errorf("AS%d reachable through excluded AS: %v", a, c)
		}
	}
	if got := r.Reachable(); got != 2 { // 40 and 41
		t.Errorf("Reachable = %d, want 2", got)
	}
	if _, err := sim.Run(Config{Origin: 20, Exclude: mask}); err == nil {
		t.Error("excluded origin accepted")
	}
}

// Fig. 1 of the paper, as reconstructed in DESIGN.md: a cloud with one
// transit provider P, peerings with a Tier-1 A, a Tier-2 B, and user ISPs
// U2, U3; ISP-A is a customer of A, ISP-B a customer of B.
func TestFig1Reachability(t *testing.T) {
	const (
		cloud = 100
		pP    = 1 // cloud's transit provider
		tA    = 2 // Tier-1 peer
		tB    = 3 // Tier-2 peer
		u2    = 4
		u3    = 5
		ispA  = 6
		ispB  = 7
	)
	g := mustGraph(t,
		p2c(pP, cloud),
		p2p(cloud, tA), p2p(cloud, tB), p2p(cloud, u2), p2p(cloud, u3),
		p2c(tA, ispA), p2c(tB, ispB),
		p2p(pP, tA), // Tier-1 clique
	)
	sim := New(g)

	counts := func(exclude ...astopo.ASN) int {
		n, err := sim.ReachabilityCount(Config{
			Origin:  cloud,
			Exclude: BuildExclude(g, astopo.NewASSet(exclude...)),
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	if got := counts(pP); got != 6 {
		t.Errorf("provider-free = %d, want 6 (A, B, U2, U3, ISP-A, ISP-B)", got)
	}
	if got := counts(pP, tA); got != 4 {
		t.Errorf("Tier-1-free = %d, want 4 (B, U2, U3, ISP-B)", got)
	}
	if got := counts(pP, tA, tB); got != 2 {
		t.Errorf("hierarchy-free = %d, want 2 (U2, U3)", got)
	}
}

// Announcement policies restrict which neighbors hear the origination.
func TestAnnouncementPolicy(t *testing.T) {
	// Origin 10 with providers 20 and 21 (disconnected from each other),
	// and peer 40.
	g := mustGraph(t, p2c(20, 10), p2c(21, 10), p2p(10, 40))
	sim := New(g)
	r, err := sim.Run(Config{
		Origin: 10,
		Policy: NewPolicy(g, []astopo.ASN{20}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if c, _ := classOf(t, r, 20); c != ClassCustomer {
		t.Errorf("AS20 = %v, want customer", c)
	}
	for _, a := range []astopo.ASN{21, 40} {
		if c, _ := classOf(t, r, a); c != ClassNone {
			t.Errorf("AS%d heard announcement despite policy: %v", a, c)
		}
	}
}

func TestRunErrors(t *testing.T) {
	g := mustGraph(t, p2c(20, 10))
	sim := New(g)
	if _, err := sim.Run(Config{Origin: 99}); err == nil {
		t.Error("unknown origin accepted")
	}
	if _, err := sim.Run(Config{Origin: 10, Exclude: make([]bool, 1)}); err == nil {
		t.Error("wrong-size mask accepted")
	}
	if _, err := sim.Run(Config{Origin: 10, Locking: make([]bool, 1)}); err == nil {
		t.Error("wrong-size locking mask accepted")
	}
}

// Simulator buffer reuse: a Clone of the first run is independent of the
// second run, which reuses the buffers the first one's view lent.
func TestRunReuse(t *testing.T) {
	g := mustGraph(t, p2c(20, 10), p2c(30, 20), p2p(30, 40))
	sim := New(g)
	r1, err := sim.Run(Config{Origin: 10})
	if err != nil {
		t.Fatal(err)
	}
	r1 = r1.Clone()
	want1 := r1.Reachable()
	r2, err := sim.Run(Config{Origin: 40})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Reachable() != want1 {
		t.Error("cloned first result mutated by second run")
	}
	if r2.Reachable() == want1 && want1 == 0 {
		t.Error("second run empty")
	}
	// ReachabilityCount agrees with Run.
	n, err := sim.ReachabilityCount(Config{Origin: 10})
	if err != nil {
		t.Fatal(err)
	}
	if n != want1 {
		t.Errorf("ReachabilityCount = %d, Run.Reachable = %d", n, want1)
	}
}

// BreakTies keeps exactly one next hop everywhere and cannot change route
// existence or best (class, length).
func TestBreakTiesSemantics(t *testing.T) {
	g := mustGraph(t, p2c(20, 10), p2c(21, 10), p2c(30, 20), p2c(30, 21), p2p(30, 40))
	sim := New(g)
	all, err := sim.Run(Config{Origin: 10, TrackNextHops: true})
	if err != nil {
		t.Fatal(err)
	}
	all = all.Clone()
	one, err := sim.Run(Config{Origin: 10, TrackNextHops: true, BreakTies: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range all.Class {
		if all.Class[i] != one.Class[i] || all.Dist[i] != one.Dist[i] {
			t.Fatalf("AS%d: (class,dist) changed under BreakTies", g.ASNAt(i))
		}
		if one.Class[i] != ClassNone && int32(i) != one.Origin && len(one.NextHops(int32(i))) != 1 {
			t.Errorf("AS%d: %d next hops under BreakTies, want 1", g.ASNAt(i), len(one.NextHops(int32(i))))
		}
	}
	i30, _ := g.Index(30)
	if hops := all.NextHops(int32(i30)); len(hops) != 2 {
		t.Fatalf("fixture lost its tie: %v", hops)
	}
}

// The destination sweep hands every visitor each origin exactly once, on
// the worker that ran it, with the tracked Result a fresh simulator gives,
// and in increasing origin order per worker; a visitor's error stops it.
func TestForEachOriginVisitsEachOriginOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		g := randomTopology(rng)
		n := g.NumASes()
		for _, procs := range []int{1, 2, 8} {
			withGOMAXPROCS(t, procs)
			var mu sync.Mutex
			visits := make([][]int, 2) // per visitor, per origin
			for v := range visits {
				visits[v] = make([]int, n)
			}
			visitor := func(v int) Visitor {
				return func(int) func(int, *Result) error {
					ref, last := New(g), -1
					return func(oi int, res *Result) error {
						if oi <= last {
							return fmt.Errorf("visitor %d: origin %d after %d on one worker", v, oi, last)
						}
						last = oi
						want, err := ref.Run(Config{Origin: g.ASNAt(oi), TrackNextHops: true})
						if err != nil {
							return err
						}
						for i := 0; i < n; i++ {
							if res.Class[i] != want.Class[i] || res.Dist[i] != want.Dist[i] ||
								!slices.Equal(res.NextHops(int32(i)), want.NextHops(int32(i))) {
								return fmt.Errorf("origin %d, AS index %d: sweep and fresh run differ", oi, i)
							}
						}
						mu.Lock()
						visits[v][oi]++
						mu.Unlock()
						return nil
					}
				}
			}
			if err := ForEachOrigin(g, visitor(0), visitor(1)); err != nil {
				t.Fatal(err)
			}
			for v := range visits {
				for oi, k := range visits[v] {
					if k != 1 {
						t.Fatalf("GOMAXPROCS=%d: visitor %d saw origin %d %d times", procs, v, oi, k)
					}
				}
			}
		}
		stop := errors.New("stop")
		err := ForEachOrigin(g, func(int) func(int, *Result) error {
			return func(int, *Result) error { return stop }
		})
		if err != stop {
			t.Fatalf("visitor error: ForEachOrigin returned %v", err)
		}
	}
}
