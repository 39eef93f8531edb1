// Peerplan: a peering planner built on hierarchy-free reachability.
//
// Given a network in the generated Internet, the example evaluates
// candidate peers by the marginal hierarchy-free reachability each would
// add — the quantity the paper shows the clouds have been maximizing. It
// then greedily proposes a short peering shopping list.
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"

	"flatnet/internal/astopo"
	"flatnet/internal/core"
	"flatnet/internal/topogen"
)

func main() {
	asn := flag.Uint("as", 16509, "network to plan for (default: Amazon)")
	rounds := flag.Int("rounds", 3, "greedy rounds (peers to recommend)")
	candidates := flag.Int("candidates", 40, "top transit candidates evaluated per round")
	flag.Parse()

	in, err := topogen.Generate(topogen.Internet2020(0.0285))
	if err != nil {
		log.Fatal(err)
	}
	origin := astopo.ASN(*asn)
	if _, ok := in.Graph.Index(origin); !ok {
		log.Fatalf("AS%d not in the generated topology", origin)
	}

	// Candidate pool: the biggest regional transits (by customer count)
	// not already adjacent to the origin.
	type cand struct {
		asn  astopo.ASN
		cone int
	}
	g := in.Graph
	cones := g.ConeSizes()
	var pool []cand
	for i, a := range g.ASes() {
		if in.ClassAt(i) != topogen.ClassTransit {
			continue
		}
		if _, linked := g.HasLink(origin, a); linked || a == origin {
			continue
		}
		pool = append(pool, cand{a, cones[i]})
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i].cone > pool[j].cone })
	if len(pool) > *candidates {
		pool = pool[:*candidates]
	}

	baseline := hierarchyFree(in, g, origin)
	fmt.Printf("%s (AS%d) hierarchy-free reachability today: %d ASes\n\n",
		in.NameOf(origin), origin, baseline)

	current := g
	for round := 1; round <= *rounds; round++ {
		bestGain, bestIdx := -1, -1
		for i, c := range pool {
			if c.asn == 0 {
				continue
			}
			trial := current.Clone()
			trial.AddLinkIfAbsent(origin, c.asn, astopo.P2P)
			gain := hierarchyFree(in, trial, origin) - baseline
			if gain > bestGain {
				bestGain, bestIdx = gain, i
			}
		}
		if bestIdx < 0 || bestGain <= 0 {
			fmt.Println("no candidate adds reachability; stopping")
			break
		}
		chosen := pool[bestIdx]
		current = current.Clone()
		current.AddLinkIfAbsent(origin, chosen.asn, astopo.P2P)
		baseline += bestGain
		pool[bestIdx].asn = 0 // consumed
		fmt.Printf("round %d: peer with %-10s (cone %4d)  -> +%d ASes (now %d)\n",
			round, in.NameOf(chosen.asn), chosen.cone, bestGain, baseline)
	}
}

func hierarchyFree(in *topogen.Internet, g *astopo.Graph, origin astopo.ASN) int {
	m := core.New(core.Dataset{Graph: g, Tier1: in.Tier1, Tier2: in.Tier2})
	n, err := m.Reachability(origin, core.HierarchyFree)
	if err != nil {
		log.Fatal(err)
	}
	return n
}
