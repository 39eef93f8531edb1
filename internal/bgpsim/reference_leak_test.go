package bgpsim

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"flatnet/internal/astopo"
)

// refPath is one complete AS path in the exhaustive reference engine.
type refPath struct {
	hops []int32 // from the holder toward the origin (exclusive of holder)
	leak bool
}

// refState is an AS's full tied-best route set.
type refState struct {
	class Class
	dist  int32
	paths []refPath
}

// refPropagateFull is an exhaustive fixed-point engine that tracks complete
// path sets (not just next hops), supports a leaker (nonzero) re-announcing
// the origin's prefix to everyone — or, with cfg.Hijack, forging its
// origination — peer-locking filters, and announcement policies. It is
// O(paths) and only usable on tiny graphs; it exists to cross-validate the
// production engine's leak and hijack semantics and reliance computation.
func refPropagateFull(g *astopo.Graph, cfg Config, leaker astopo.ASN) ([]refState, error) {
	g.Freeze()
	n := g.NumASes()
	oi, ok := g.Index(cfg.Origin)
	if !ok {
		return nil, errNotFound
	}
	li := -1
	if leaker != 0 {
		x, ok := g.Index(leaker)
		if !ok {
			return nil, errNotFound
		}
		li = x
	}

	relClass := func(v, u int32) Class {
		for _, c := range g.CustomersOf(int(v)) {
			if c == u {
				return ClassCustomer
			}
		}
		for _, p := range g.PeersOf(int(v)) {
			if p == u {
				return ClassPeer
			}
		}
		return ClassProvider
	}

	// run computes the fixed point; when leakPaths is non-nil the leaker
	// originates the prefix carrying its legitimate AS paths (so
	// downstream loop detection sees the full path, as real BGP would).
	run := func(leakDist int32, leakPaths []refPath) []refState {
		state := make([]refState, n)
		for i := range state {
			state[i] = refState{class: ClassNone, dist: -1}
		}
		state[oi] = refState{class: ClassOrigin, dist: 0, paths: []refPath{{}}}
		if leakDist >= 0 {
			state[li] = refState{class: ClassOrigin, dist: leakDist, paths: leakPaths}
		}
		for round := 0; round < 2*n+4; round++ {
			changed := false
			next := make([]refState, n)
			copy(next, state)
			for v := int32(0); v < int32(n); v++ {
				if int(v) == oi || (leakDist >= 0 && int(v) == li) {
					continue
				}
				if cfg.Exclude != nil && cfg.Exclude[v] {
					continue
				}
				best := refState{class: ClassNone, dist: -1}
				consider := func(u int32) {
					if cfg.Exclude != nil && cfg.Exclude[u] {
						return
					}
					su := state[u]
					if su.class == ClassNone {
						return
					}
					// Export rule: origin per policy; leaker to all;
					// others only customer-learned routes except to
					// their customers.
					switch {
					case int(u) == oi:
						if !cfg.Policy.allows(v) {
							return
						}
					case leakDist >= 0 && int(u) == li:
						// leaker exports to everyone (leak run only)
					default:
						if su.class != ClassCustomer {
							exportsToCust := false
							for _, c := range g.CustomersOf(int(u)) {
								if c == v {
									exportsToCust = true
									break
								}
							}
							if !exportsToCust {
								return
							}
						}
					}
					// Peer locking: v accepts the prefix only from the
					// origin directly.
					if cfg.Locking != nil && cfg.Locking[v] && int(u) != oi {
						return
					}
					// Loop avoidance first: a route is usable only if
					// at least one of its paths does not pass back
					// through v (BGP's AS-path loop detection).
					var cand []refPath
					for _, p := range su.paths {
						loops := false
						for _, h := range p.hops {
							if h == v {
								loops = true
								break
							}
						}
						if loops {
							continue
						}
						cand = append(cand, refPath{
							hops: append([]int32{u}, p.hops...),
							leak: p.leak || (leakDist >= 0 && int(u) == li),
						})
					}
					if len(cand) == 0 {
						return
					}
					c := relClass(v, u)
					d := su.dist + 1
					if best.class == ClassNone || c > best.class || (c == best.class && d < best.dist) {
						best = refState{class: c, dist: d}
					}
					if c == best.class && d == best.dist {
						best.paths = append(best.paths, cand...)
					}
				}
				for _, u := range g.ProvidersOf(int(v)) {
					consider(u)
				}
				for _, u := range g.PeersOf(int(v)) {
					consider(u)
				}
				for _, u := range g.CustomersOf(int(v)) {
					consider(u)
				}
				// A round that changes only which paths an AS holds
				// (same class, length and count) is not yet the fixed
				// point: its neighbors read the new paths next round.
				if best.class != next[v].class || best.dist != next[v].dist || !samePaths(best.paths, next[v].paths) {
					changed = true
				}
				next[v] = best
			}
			state = next
			if !changed && round > 0 {
				break
			}
		}
		return state
	}

	if li < 0 {
		return run(-1, nil), nil
	}
	if cfg.Hijack {
		// A forged origination: length zero, an empty hop set (no
		// upstream path for loop detection to reject), no pre-pass.
		// The announcement policy still binds only the origin, and peer
		// locking still discards the leaker's copies.
		return run(0, []refPath{{leak: true}}), nil
	}
	// Pre-pass: the leaker's legitimate routes; the leak re-announces
	// them (marked leaked) to everyone.
	pre := run(-1, nil)
	if pre[li].class == ClassNone {
		return pre, nil
	}
	// The production engine models loop detection at the granularity of
	// the whole tied set: a leaked copy dies only at ASes on *every* one
	// of the leaker's tied-best paths (see Simulator.onAllLeakerPaths).
	// Mirror that here by seeding a single pseudo-path whose hop set is
	// the intersection of the leaker's paths.
	common := map[int32]int{}
	for _, p := range pre[li].paths {
		seen := map[int32]bool{}
		for _, h := range p.hops {
			if !seen[h] {
				seen[h] = true
				common[h]++
			}
		}
	}
	var hops []int32
	for h, c := range common {
		if c == len(pre[li].paths) {
			hops = append(hops, h)
		}
	}
	return run(pre[li].dist, []refPath{{hops: hops, leak: true}}), nil
}

// samePaths reports whether two path lists hold the same paths in the same
// order.
func samePaths(a, b []refPath) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].leak != b[i].leak || !slices.Equal(a[i].hops, b[i].hops) {
			return false
		}
	}
	return true
}

var errNotFound = &notFoundError{}

type notFoundError struct{}

func (*notFoundError) Error() string { return "bgpsim: AS not in graph" }

// TestLeakMatchesReference cross-validates LeakSweep.Run's classes, lengths
// and detour flags against the exhaustive engine on random small graphs
// with random locking sets and policies; about a third of the seeds
// simulate a hijack instead of a leak.
func TestLeakMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomTopology(rng)
		g.Freeze()
		all := g.ASes()
		origin := all[rng.Intn(len(all))]
		var leaker astopo.ASN
		for {
			leaker = all[rng.Intn(len(all))]
			if leaker != origin {
				break
			}
		}
		cfg := Config{Origin: origin, Hijack: rng.Intn(3) == 0}
		// Random locking among origin's neighbors.
		if rng.Intn(2) == 1 {
			var locked []astopo.ASN
			for _, nb := range append(append(g.Providers(origin), g.Peers(origin)...), g.Customers(origin)...) {
				if rng.Intn(2) == 0 {
					locked = append(locked, nb)
				}
			}
			cfg.Locking = BuildLocking(g, locked)
		}
		// Random announcement policy.
		if rng.Intn(3) == 0 {
			var allowed []astopo.ASN
			for _, nb := range append(append(g.Providers(origin), g.Peers(origin)...), g.Customers(origin)...) {
				if rng.Intn(2) == 0 {
					allowed = append(allowed, nb)
				}
			}
			cfg.Policy = NewPolicy(g, allowed)
		}

		sweep, err := NewLeakSweep(g, cfg)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		res, err := sweep.Run(leaker)
		sweep.Release()
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		ref, err := refPropagateFull(g, cfg, leaker)
		if err != nil {
			return false
		}
		oi, _ := g.Index(origin)
		liIdx, _ := g.Index(leaker)
		for i := range ref {
			if i == oi || i == liIdx {
				continue
			}
			if ref[i].class != res.Class[i] || ref[i].dist != res.Dist[i] {
				t.Logf("seed %d (hijack %v) AS%d: ref %v/%d sim %v/%d",
					seed, cfg.Hijack, g.ASNAt(i), ref[i].class, ref[i].dist, res.Class[i], res.Dist[i])
				return false
			}
			if ref[i].class == ClassNone {
				continue
			}
			refLeak, refLegit := false, false
			for _, p := range ref[i].paths {
				if p.leak {
					refLeak = true
				} else {
					refLegit = true
				}
			}
			simLeak := res.Flags[i]&ViaLeak != 0
			simLegit := res.Flags[i]&ViaLegit != 0
			if refLeak != simLeak || refLegit != simLegit {
				t.Logf("seed %d (hijack %v) AS%d: ref leak=%v legit=%v, sim leak=%v legit=%v (class %v dist %d)",
					seed, cfg.Hijack, g.ASNAt(i), refLeak, refLegit, simLeak, simLegit, res.Class[i], res.Dist[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestRelianceMatchesExhaustive cross-validates the DAG-based reliance
// against explicit enumeration of all tied-best paths.
func TestRelianceMatchesExhaustive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomTopology(rng)
		g.Freeze()
		all := g.ASes()
		origin := all[rng.Intn(len(all))]

		sim := New(g)
		res, err := sim.Run(Config{Origin: origin, TrackNextHops: true})
		if err != nil {
			return false
		}
		rely, err := res.Reliance()
		if err != nil {
			return false
		}
		ref, err := refPropagateFull(g, Config{Origin: origin}, 0)
		if err != nil {
			return false
		}
		// Exhaustive reliance: for every destination t, each AS a gets
		// (paths of t containing a) / (paths of t). A path "contains"
		// t itself and every hop.
		n := g.NumASes()
		want := make([]float64, n)
		for ti := 0; ti < n; ti++ {
			st := ref[ti]
			if st.class == ClassNone || int32(ti) == res.Origin {
				continue
			}
			if len(st.paths) == 0 {
				return false
			}
			counts := make(map[int32]int)
			for _, p := range st.paths {
				counts[int32(ti)]++
				for _, h := range p.hops {
					counts[h]++
				}
			}
			for a, c := range counts {
				want[a] += float64(c) / float64(len(st.paths))
			}
		}
		for i := range want {
			if math.Abs(want[i]-rely[i]) > 1e-9*(1+math.Abs(want[i])) {
				t.Logf("seed %d AS%d: exhaustive %v, DAG %v", seed, g.ASNAt(i), want[i], rely[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
