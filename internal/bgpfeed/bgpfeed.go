// Package bgpfeed simulates public BGP route collectors (RouteViews / RIPE
// RIS style): a set of vantage-point ASes export their best path for every
// origin, and the "visible topology" is the union of links appearing on
// those paths.
//
// This reproduces the structural blindness the paper builds on (§2.3,
// §4.1): peer-to-peer links at the edge are visible only to the two peers
// and their customers, so feeds anchored at transit networks see nearly all
// c2p links but miss the vast majority of edge peerings — including most
// cloud-provider peerings, which is why the paper augments the CAIDA graph
// with traceroutes from cloud VMs.
package bgpfeed

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sort"

	"flatnet/internal/astopo"
	"flatnet/internal/bgpsim"
	"flatnet/internal/par"
)

// View is what the collectors see.
type View struct {
	// VPs are the vantage-point ASes feeding the collectors.
	VPs []astopo.ASN
	// Paths are AS paths as exported to the collectors: VP first,
	// origin last. One path per (VP, origin) pair that has a route.
	Paths [][]astopo.ASN
	// Links are the distinct links appearing on those paths, annotated
	// with their true relationship from the underlying graph.
	Links []astopo.Link
}

// Collect runs one full table transfer: every AS originates a prefix, and
// each VP contributes its best path (ties broken deterministically).
func Collect(g *astopo.Graph, vps []astopo.ASN) (*View, error) {
	g.Freeze()
	vpIdx := make([]int32, 0, len(vps))
	for _, v := range vps {
		i, ok := g.Index(v)
		if !ok {
			return nil, fmt.Errorf("bgpfeed: VP AS%d not in graph", v)
		}
		vpIdx = append(vpIdx, int32(i))
	}

	origins := g.ASes()
	perOrigin := make([][][]astopo.ASN, len(origins))
	err := par.For(runtime.GOMAXPROCS(0), len(origins), func(int) func(int) error {
		sim := bgpsim.New(g)
		return func(oi int) error {
			res, err := sim.Run(bgpsim.Config{Origin: origins[oi], TrackNextHops: true})
			if err != nil {
				return err
			}
			var paths [][]astopo.ASN
			for k, vi := range vpIdx {
				if p := walkPath(g, res, vi, uint64(k)); p != nil {
					paths = append(paths, p)
				}
			}
			perOrigin[oi] = paths
			return nil
		}
	})
	if err != nil {
		return nil, err
	}

	view := &View{VPs: vps}
	seen := make(map[[2]astopo.ASN]bool)
	for _, paths := range perOrigin {
		for _, p := range paths {
			view.Paths = append(view.Paths, p)
			for i := 1; i < len(p); i++ {
				a, b := p[i-1], p[i]
				key := canon(a, b)
				if seen[key] {
					continue
				}
				seen[key] = true
				rel, ok := g.HasLink(a, b)
				if !ok {
					return nil, fmt.Errorf("bgpfeed: path used nonexistent link AS%d-AS%d", a, b)
				}
				switch rel {
				case astopo.P2P:
					view.Links = append(view.Links, astopo.Link{A: a, B: b, Rel: astopo.P2P})
				case astopo.P2C:
					view.Links = append(view.Links, astopo.Link{A: a, B: b, Rel: astopo.P2C})
				case astopo.C2P:
					view.Links = append(view.Links, astopo.Link{A: b, B: a, Rel: astopo.P2C})
				}
			}
		}
	}
	sort.Slice(view.Links, func(i, j int) bool {
		if view.Links[i].A != view.Links[j].A {
			return view.Links[i].A < view.Links[j].A
		}
		return view.Links[i].B < view.Links[j].B
	})
	return view, nil
}

// walkPath extracts the VP's exported best path (VP..origin), breaking
// next-hop ties with a per-VP hash.
func walkPath(g *astopo.Graph, res *bgpsim.Result, vp int32, salt uint64) []astopo.ASN {
	if res.Class[vp] == bgpsim.ClassNone {
		return nil
	}
	if vp == res.Origin {
		return nil
	}
	path := []astopo.ASN{g.ASNAt(int(vp))}
	cur := vp
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d", vp, res.Origin)
	x := h.Sum64() + salt
	for cur != res.Origin {
		hops := res.NextHops(cur)
		if len(hops) == 0 {
			return nil
		}
		x = x*6364136223846793005 + 1442695040888963407
		cur = hops[(x>>33)%uint64(len(hops))]
		path = append(path, g.ASNAt(int(cur)))
		if len(path) > 64 {
			return nil
		}
	}
	return path
}

// BuildGraph assembles the feed-visible topology ("the CAIDA dataset") from
// a view, using the ground-truth relationship labels of the visible links —
// the paper consumes CAIDA's labels the same way.
func (v *View) BuildGraph() (*astopo.Graph, error) {
	g := astopo.NewGraph(0, len(v.Links))
	for _, l := range v.Links {
		if err := g.AddLink(l.A, l.B, l.Rel); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// VisibleNeighbors returns the ASes adjacent to a in the view's link set.
func (v *View) VisibleNeighbors(a astopo.ASN) []astopo.ASN {
	var out []astopo.ASN
	for _, l := range v.Links {
		switch a {
		case l.A:
			out = append(out, l.B)
		case l.B:
			out = append(out, l.A)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SampleVPs picks n vantage points deterministically from the candidate
// list (typically transit ASes — the networks that actually feed public
// collectors).
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

func canon(a, b astopo.ASN) [2]astopo.ASN {
	if a < b {
		return [2]astopo.ASN{a, b}
	}
	return [2]astopo.ASN{b, a}
}
