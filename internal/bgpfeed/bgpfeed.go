// Package bgpfeed simulates public BGP route collectors (RouteViews / RIPE
// RIS style): a set of vantage-point ASes export their best path for every
// origin, and the "visible topology" is the graph of the links appearing on
// those paths.
//
// This reproduces the structural blindness the paper builds on (§2.3,
// §4.1): peer-to-peer links at the edge are visible only to the two peers
// and their customers, so feeds anchored at transit networks see nearly all
// c2p links but miss the vast majority of edge peerings — including most
// cloud-provider peerings, which is why the paper augments the CAIDA graph
// with traceroutes from cloud VMs.
//
// A table transfer is walked, never kept: Collect folds its paths into the
// feed-visible graph and WriteMRT encodes them into RIB records, each path
// living only as long as its origin's visit.
package bgpfeed

import (
	"cmp"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"sync"

	"flatnet/internal/astopo"
	"flatnet/internal/bgpsim"
	"flatnet/internal/par"
	"flatnet/internal/topogen"
)

// maxPathLen bounds an exported path: walkPath drops a walk that grows
// past it.
const maxPathLen = 64

// walk runs one full table transfer: every AS originates a prefix, one
// tracked propagation per origin over par.For, and each VP's best path
// (ties broken deterministically) is walked into its worker's buffer.
// visit(w) makes worker w's visitor, which is called with each origin's
// index in g.ASes() and its paths in VP order: paths[k] is vps[k]'s path,
// VP first and origin last, or nil where that VP has none. The paths are
// valid only during the call. Each worker visits its origins in
// increasing index order (par.For's cursor only moves forward).
func walk(g *astopo.Graph, vps []astopo.ASN, visit func(w int) func(oi int, paths [][]astopo.ASN) error) error {
	g.Freeze()
	vpIdx := make([]int32, len(vps))
	for k, v := range vps {
		i, ok := g.Index(v)
		if !ok {
			return fmt.Errorf("bgpfeed: VP AS%d not in graph", v)
		}
		vpIdx[k] = int32(i)
	}
	origins := g.ASes()
	return par.For(runtime.GOMAXPROCS(0), len(origins), func(w int) func(int) error {
		sim := bgpsim.New(g)
		// One fixed slot per VP: a path never outgrows maxPathLen+1 ASes,
		// so the walks never reallocate.
		const slot = maxPathLen + 1
		buf := make([]astopo.ASN, len(vps)*slot)
		paths := make([][]astopo.ASN, len(vps))
		fn := visit(w)
		return func(oi int) error {
			res, err := sim.Run(bgpsim.Config{Origin: origins[oi], TrackNextHops: true})
			if err != nil {
				return err
			}
			for k, vi := range vpIdx {
				paths[k] = walkPath(g, res, vi, uint64(k), buf[k*slot:k*slot:(k+1)*slot])
			}
			return fn(oi, paths)
		}
	})
}

// walkPath appends the VP's exported best path (VP..origin) to path and
// returns it, breaking next-hop ties with a per-VP hash; it returns nil
// where the VP has no route.
func walkPath(g *astopo.Graph, res *bgpsim.Result, vp int32, salt uint64, path []astopo.ASN) []astopo.ASN {
	if res.Class[vp] == bgpsim.ClassNone {
		return nil
	}
	if vp == res.Origin {
		return nil
	}
	path = append(path, g.ASNAt(int(vp)))
	cur := vp
	// FNV-1a of "<vp>/<origin>" seeds the tie-breaking sequence.
	var b [24]byte
	s := strconv.AppendInt(b[:0], int64(vp), 10)
	s = append(s, '/')
	s = strconv.AppendInt(s, int64(res.Origin), 10)
	x := uint64(14695981039346656037)
	for _, c := range s {
		x = (x ^ uint64(c)) * 1099511628211
	}
	x += salt
	for cur != res.Origin {
		hops := res.NextHops(cur)
		if len(hops) == 0 {
			return nil
		}
		x = x*6364136223846793005 + 1442695040888963407
		cur = hops[(x>>33)%uint64(len(hops))]
		path = append(path, g.ASNAt(int(cur)))
		if len(path) > maxPathLen {
			return nil
		}
	}
	return path
}

// Collect runs one table transfer and returns the feed-visible topology
// ("the CAIDA dataset"), frozen: the distinct links the VPs' paths cross,
// with their ground-truth relationship labels — the paper consumes
// CAIDA's labels the same way.
func Collect(g *astopo.Graph, vps []astopo.ASN) (*astopo.Graph, error) {
	// A peering link is oriented as the first path in (origin, VP, hop)
	// order crosses it. A worker visits its origins in increasing order,
	// so its first sighting of a link is its earliest, and across workers
	// the sighting at the least origin wins.
	type sighting struct {
		link   astopo.Link
		origin int
	}
	var (
		mu   sync.Mutex
		seen []map[uint64]sighting
	)
	err := walk(g, vps, func(int) func(int, [][]astopo.ASN) error {
		mine := make(map[uint64]sighting)
		mu.Lock()
		seen = append(seen, mine)
		mu.Unlock()
		return func(oi int, paths [][]astopo.ASN) error {
			for _, p := range paths {
				for i := 1; i < len(p); i++ {
					a, b := p[i-1], p[i]
					key := astopo.PairKey(a, b)
					if _, ok := mine[key]; ok {
						continue
					}
					rel, ok := g.HasLink(a, b)
					if !ok {
						return fmt.Errorf("bgpfeed: path used nonexistent link AS%d-AS%d", a, b)
					}
					if rel == astopo.C2P {
						a, b, rel = b, a, astopo.P2C
					}
					mine[key] = sighting{astopo.Link{A: a, B: b, Rel: rel}, oi}
				}
			}
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	first := make(map[uint64]sighting)
	for _, m := range seen {
		for key, s := range m {
			if f, ok := first[key]; !ok || s.origin < f.origin {
				first[key] = s
			}
		}
	}
	links := make([]astopo.Link, 0, len(first))
	for _, s := range first {
		links = append(links, s.link)
	}
	// Freeze fills rows in link order, and propagation over the feed graph
	// depends on that order: the links go in sorted by (A, B).
	slices.SortFunc(links, func(x, y astopo.Link) int {
		return cmp.Or(cmp.Compare(x.A, y.A), cmp.Compare(x.B, y.B))
	})
	feed := astopo.FromLinks(links)
	feed.Freeze()
	return feed, nil
}

// VantagePoints picks n route-collector vantage points from in's transit,
// Tier-2 and Tier-1 ASes — the networks that feed public collectors —
// with the one seed every collector in the repository shares.
func VantagePoints(in *topogen.Internet, n int) []astopo.ASN {
	var cands []astopo.ASN
	for i, a := range in.Graph.ASes() {
		switch in.ClassAt(i) {
		case topogen.ClassTransit, topogen.ClassTier2, topogen.ClassTier1:
			cands = append(cands, a)
		}
	}
	return SampleVPs(cands, n, 11)
}

// SampleVPs picks n vantage points deterministically from the candidate
// list.
func SampleVPs(candidates []astopo.ASN, n int, seed int64) []astopo.ASN {
	rng := rand.New(rand.NewSource(seed))
	if n > len(candidates) {
		n = len(candidates)
	}
	perm := rng.Perm(len(candidates))
	out := make([]astopo.ASN, n)
	for i := 0; i < n; i++ {
		out[i] = candidates[perm[i]]
	}
	return out
}
