package bgpsim_test

import (
	"fmt"
	"log"

	"flatnet/internal/astopo"
	"flatnet/internal/bgpsim"
)

// Example runs one propagation and inspects route classes — the building
// block under every metric in the repository.
func Example() {
	g := astopo.NewGraph(0, 0)
	g.MustAddLink(20, 10, astopo.P2C) // 20 is origin 10's provider
	g.MustAddLink(20, 30, astopo.P2C) // 30 is another customer of 20
	g.MustAddLink(20, 40, astopo.P2P) // 40 peers with 20

	sim := bgpsim.New(g)
	res, err := sim.Run(bgpsim.Config{Origin: 10})
	if err != nil {
		log.Fatal(err)
	}
	for _, a := range []astopo.ASN{20, 30, 40} {
		i, _ := g.Index(a)
		fmt.Printf("AS%d: %v route, %d hops\n", a, res.Class[i], res.Dist[i])
	}
	// Output:
	// AS20: customer route, 1 hops
	// AS30: provider route, 2 hops
	// AS40: peer route, 2 hops
}

// Example_routeLeak simulates §8's experiment: a misconfigured AS
// re-announces the origin's prefix, and an AS that prefers customer routes
// detours — unless it deploys peer locking.
func Example_routeLeak() {
	g := astopo.NewGraph(0, 0)
	g.MustAddLink(30, 20, astopo.P2C) // Tier-1 30 over provider 20
	g.MustAddLink(30, 21, astopo.P2C) // and over peer-AS 21
	g.MustAddLink(30, 22, astopo.P2C)
	g.MustAddLink(20, 10, astopo.P2C) // origin 10 buys from 20
	g.MustAddLink(10, 21, astopo.P2P) // and peers with 21 and 22
	g.MustAddLink(10, 22, astopo.P2P)
	g.MustAddLink(21, 40, astopo.P2C) // the leaker multihomes under 21 and 22
	g.MustAddLink(22, 40, astopo.P2C)

	// detours replays leaker 40 against cfg and counts the ASes left with a
	// tied-best route toward it.
	detours := func(cfg bgpsim.Config) int {
		sweep, err := bgpsim.NewLeakSweep(g, cfg)
		if err != nil {
			log.Fatal(err)
		}
		leak, err := sweep.Run(40)
		if err != nil {
			log.Fatal(err)
		}
		n := 0
		for i, f := range leak.Flags {
			if f&bgpsim.ViaLeak != 0 && int32(i) != leak.Origin && int32(i) != leak.LeakerIdx {
				n++
			}
		}
		return n
	}
	fmt.Printf("no locking: %d ASes detoured\n", detours(bgpsim.Config{Origin: 10}))
	fmt.Printf("peer locking at 21+22: %d ASes detoured\n", detours(bgpsim.Config{
		Origin:  10,
		Locking: bgpsim.BuildLocking(g, []astopo.ASN{21, 22}),
	}))
	// Output:
	// no locking: 2 ASes detoured
	// peer locking at 21+22: 0 ASes detoured
}
