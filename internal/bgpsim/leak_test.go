package bgpsim

import (
	"testing"

	"flatnet/internal/astopo"
)

// leakTopology builds a scenario where a leaker attracts traffic:
//
//	T (30) is a Tier-1 providing transit to P (20), Q (21), and R (22).
//	Origin o (10) is a customer of P and peers with Q and R.
//	Leaker l (40) is a customer of Q *and* R (multihomed).
//	Victim v (50) is a customer of Q.
//
// Without a leak, Q's best route to o is its direct peer route (length 1),
// and v routes via Q (provider route, length 2, legit).
// When l leaks, its tied-best legitimate routes run via Q and via R; Q's
// BGP loop detection rejects the copy whose path contains Q, but the copy
// via R is loop-free, arrives from customer l, and customer routes beat
// peer routes — so Q detours (the class-over-length preference §8.2
// discusses).
func leakTopology(t *testing.T) *astopo.Graph {
	return mustGraph(t,
		p2c(30, 20), p2c(30, 21), p2c(30, 22),
		p2c(20, 10),
		p2p(10, 21), p2p(10, 22),
		p2c(21, 40), p2c(22, 40),
		p2c(21, 50),
	)
}

// leakRun replays leaker against base on a new LeakSweep: the production
// scalar path to a leak's full Result.
func leakRun(t *testing.T, g *astopo.Graph, base Config, leaker astopo.ASN) *Result {
	t.Helper()
	sw, err := NewLeakSweep(g, base)
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Release()
	r, err := sw.Run(leaker)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestLeakDetoursCustomerPreferringAS(t *testing.T) {
	g := leakTopology(t)
	r := leakRun(t, g, Config{Origin: 10}, 40)
	iQ, _ := g.Index(21)
	// l's legitimate route: via its provider Q (peer route at Q),
	// dist 2. Leak seeds at 2; Q hears it from customer at dist 3 —
	// customer class beats Q's direct peer route (dist 1).
	if r.Class[iQ] != ClassCustomer {
		t.Errorf("Q class = %v, want customer (leak attracts via class preference)", r.Class[iQ])
	}
	if r.Flags[iQ]&ViaLeak == 0 {
		t.Error("Q not marked detoured")
	}
	if r.Flags[iQ]&ViaLegit != 0 {
		t.Error("Q marked legit despite strictly preferring the leak")
	}
	iV, _ := g.Index(50)
	if r.Flags[iV]&ViaLeak == 0 {
		t.Error("victim v not detoured (hears only Q's leaked best)")
	}
	// P hears the legit customer route from o at dist 1; the leaked
	// route reaches P only via T (provider, worse class).
	iP, _ := g.Index(20)
	if r.Flags[iP]&ViaLeak != 0 || r.Flags[iP]&ViaLegit == 0 {
		t.Errorf("P flags = %b, want legit only", r.Flags[iP])
	}
	if got := detoured(r); got < 2 {
		t.Errorf("Detoured = %d, want >= 2 (Q, v at least)", got)
	}
}

func TestLeakPeerLockingStopsLeak(t *testing.T) {
	g := leakTopology(t)
	// Q deploys peer locking for o's prefixes: it accepts them only
	// directly from o, so the customer-leaked route is discarded.
	r := leakRun(t, g, Config{Origin: 10, Locking: BuildLocking(g, []astopo.ASN{21})}, 40)
	iQ, _ := g.Index(21)
	if r.Class[iQ] != ClassPeer || r.Flags[iQ]&ViaLeak != 0 {
		t.Errorf("Q with locking: class=%v flags=%b, want peer/legit-only", r.Class[iQ], r.Flags[iQ])
	}
	iV, _ := g.Index(50)
	if r.Flags[iV]&ViaLeak != 0 {
		t.Error("victim detoured despite Q's peer lock (erratum semantics: leaked routes never traverse locking ASes)")
	}
	// R does not lock, so it still detours (via the leaked copy whose
	// path avoids R).
	iR, _ := g.Index(22)
	if r.Flags[iR]&ViaLeak == 0 {
		t.Error("unlocked R should still be detoured")
	}
	// Locking both of the origin's leaked-side peers kills the leak
	// entirely.
	r2 := leakRun(t, g, Config{Origin: 10, Locking: BuildLocking(g, []astopo.ASN{21, 22})}, 40)
	if got := detoured(r2); got != 0 {
		t.Errorf("Detoured with Q+R locked = %d, want 0", got)
	}
}

// BGP loop detection: when the leaker's only legitimate path runs through
// an AS, that AS rejects every leaked copy (its own ASN is on the path).
func TestLeakLoopDetectionProtectsUpstream(t *testing.T) {
	// Single-homed leaker: l (40) is a customer of Q (21) only; Q peers
	// with the origin. Every leaked copy carries [l, Q, o], so Q — and
	// everyone who'd only be reachable through Q — stays clean.
	g := mustGraph(t,
		p2c(30, 20), p2c(30, 21),
		p2c(20, 10),
		p2p(10, 21),
		p2c(21, 40),
		p2c(21, 50),
	)
	r := leakRun(t, g, Config{Origin: 10}, 40)
	iQ, _ := g.Index(21)
	if r.Flags[iQ]&ViaLeak != 0 {
		t.Errorf("Q detoured despite being on the leaked AS path (flags=%b)", r.Flags[iQ])
	}
	if r.Class[iQ] != ClassPeer {
		t.Errorf("Q class = %v, want its legitimate peer route", r.Class[iQ])
	}
	iV, _ := g.Index(50)
	if r.Flags[iV]&ViaLeak != 0 {
		t.Error("v detoured; its only path to the leak runs through loop-protected Q")
	}
	// The leak still poisons ASes not on the path: T (30) hears the
	// leaked route from its customer Q? No — Q rejected it. In this
	// topology the leak goes nowhere at all.
	if got := detoured(r); got != 0 {
		t.Errorf("Detoured = %d, want 0 (fully contained by loop detection)", got)
	}
}

func TestLeakUnreachableLeakerIsNoop(t *testing.T) {
	g := mustGraph(t,
		p2c(20, 10),
		p2p(40, 41), // island disconnected from origin
	)
	r := leakRun(t, g, Config{Origin: 10}, 40)
	if got := detoured(r); got != 0 {
		t.Errorf("Detoured = %d, want 0 (leaker has no route to leak)", got)
	}
	i20, _ := g.Index(20)
	if r.Flags[i20]&ViaLegit == 0 {
		t.Error("legit route not flagged in no-op leak result")
	}
}

func TestLeakTiedRoutesSetBothFlags(t *testing.T) {
	// Victim w hears two equal customer routes: one from o directly
	// (its customer) and one from leaker l (also its customer) — l's
	// legit route must have length 0 offset... instead make distances
	// tie through symmetric intermediaries:
	//
	//	w (60) is provider of a (61) and b (62);
	//	a is provider of o (10); b is provider of l (40);
	//	l is also a provider of o, giving it a legit customer route of
	//	length 1. Leak seeds at 1; w hears legit o at dist 2 via a and
	//	leaked o at dist 1+... via b at dist 3. Not tied.
	//
	// Simplest true tie: l peers with o (legit dist 1); w is provider
	// of x (61) and y (62); x provider of o; y provider of l.
	// w legit: via x dist 2 (customer). w leaked: via y dist 1+1+... y
	// hears leak from customer l at dist 2, w at dist 3. Still not tied.
	//
	// Make the legit side longer: x is provider of m (63), m provider
	// of o. w legit via x: dist 3. w leaked via y: dist 3. Tied.
	g := mustGraph(t,
		p2c(61, 63), p2c(63, 10), // legit chain: w->x->m->o
		p2c(60, 61), p2c(60, 62),
		p2p(10, 40), // leaker peers with origin: legit dist 1
		p2c(62, 40), // leak chain: w->y->l
	)
	r := leakRun(t, g, Config{Origin: 10}, 40)
	iW, _ := g.Index(60)
	if r.Class[iW] != ClassCustomer || r.Dist[iW] != 3 {
		t.Fatalf("w: class=%v dist=%d, want customer/3", r.Class[iW], r.Dist[iW])
	}
	if r.Flags[iW] != ViaLegit|ViaLeak {
		t.Errorf("w flags = %b, want both (tied best routes)", r.Flags[iW])
	}
	if got := detoured(r); got == 0 {
		t.Error("tied AS not counted as detoured (worst-case rule)")
	}
}

func TestDetouredWeight(t *testing.T) {
	g := leakTopology(t)
	r := leakRun(t, g, Config{Origin: 10}, 40)
	w := make([]float64, g.NumASes())
	iQ, _ := g.Index(21)
	iV, _ := g.Index(50)
	w[iQ] = 2.5
	w[iV] = 1.5
	if got := detouredWeight(r, w); got != 4.0 {
		t.Errorf("detoured weight = %v, want 4.0", got)
	}
	// Trial reduces the same leak to the same weighted sum.
	sw, err := NewLeakSweep(g, Config{Origin: 10})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sw.Trial(40, w)
	if err != nil {
		t.Fatal(err)
	}
	if tr.DetouredUserFrac != 4.0 {
		t.Errorf("Trial DetouredUserFrac = %v, want 4.0", tr.DetouredUserFrac)
	}
}

// The announce-to-subset policy interacts with leaks: announcing only into
// the hierarchy makes peers prefer leaked customer routes.
func TestLeakWithRestrictedAnnouncement(t *testing.T) {
	g := leakTopology(t)
	// Origin announces only to its provider P (not to peer Q).
	r := leakRun(t, g, Config{Origin: 10, Policy: NewPolicy(g, []astopo.ASN{20})}, 40)
	// Q now has no direct route; its routes are the leaked customer one.
	iQ, _ := g.Index(21)
	if r.Flags[iQ]&ViaLeak == 0 || r.Flags[iQ]&ViaLegit != 0 {
		t.Errorf("Q flags = %b, want leak only", r.Flags[iQ])
	}
}

// A hijack (forged origination at length zero) detours at least as many
// ASes as the corresponding leak: it competes at the best possible length
// and no loop detection protects the leaker's upstream.
func TestHijackDominatesLeak(t *testing.T) {
	g := leakTopology(t)
	leak := leakRun(t, g, Config{Origin: 10}, 40)
	hijack := leakRun(t, g, Config{Origin: 10, Hijack: true}, 40)
	if detoured(hijack) < detoured(leak) {
		t.Errorf("hijack detours %d < leak detours %d", detoured(hijack), detoured(leak))
	}
	// The hijacker's providers prefer the forged customer route at
	// length 1 over longer legitimate routes.
	iQ, _ := g.Index(21)
	if hijack.Flags[iQ]&ViaLeak == 0 {
		t.Error("Q not detoured by hijack")
	}
	// An unreachable "leaker" can still hijack (it forges origination).
	g2 := mustGraph(t, p2c(20, 10), p2p(40, 41))
	h2 := leakRun(t, g2, Config{Origin: 10, Hijack: true}, 40)
	i41, _ := g2.Index(41)
	if h2.Flags[i41]&ViaLeak == 0 {
		t.Error("island hijack did not capture the hijacker's peer")
	}
}
