package topogen

import (
	"math"
	"sort"

	"flatnet/internal/astopo"
	"flatnet/internal/geo"
)

// buildIXPs places exchanges in the most populous gazetteer cities, signs
// up members, and creates the public peering mesh: each co-located pair
// peers with probability equal to the product of the two members' openness
// factors. This is what flattens the synthetic Internet — exactly the IXP
// mechanism §2.2 describes.
func (b *builder) buildIXPs() {
	cities := geo.Cities()
	order := make([]int, len(cities))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return cities[order[i]].PopM > cities[order[j]].PopM })
	nIXP := b.spec.NumIXPs
	if nIXP > len(order) {
		nIXP = len(order)
	}
	var ixpByContinent [geo.NumContinents][]int // index into in.IXPs
	for k := 0; k < nIXP; k++ {
		city := geo.CityID(order[k])
		b.in.IXPs = append(b.in.IXPs, IXP{City: city})
		ixpByContinent[cities[city].Continent] = append(ixpByContinent[cities[city].Continent], k)
	}

	// Membership: how many home-continent IXPs each class typically
	// joins, and the probability of joining each candidate.
	join := func(a astopo.ASN, maxJoin int, prob float64, global bool) {
		cont := cities[b.as(a).home].Continent
		cands := ixpByContinent[cont]
		joined := 0
		for _, k := range cands {
			if joined >= maxJoin {
				break
			}
			if b.rng.Float64() < prob {
				b.in.IXPs[k].Members = append(b.in.IXPs[k].Members, a)
				joined++
			}
		}
		if global && joined < maxJoin {
			for tries := 0; tries < 4 && joined < maxJoin; tries++ {
				k := b.rng.Intn(len(b.in.IXPs))
				if b.rng.Float64() < prob {
					b.in.IXPs[k].Members = append(b.in.IXPs[k].Members, a)
					joined++
				}
			}
		}
	}
	for _, a := range b.transits {
		join(a, 5, 0.55, true)
	}
	for _, a := range b.access {
		join(a, 3, 0.30, false)
	}
	for _, a := range b.content {
		join(a, 4, 0.45, true)
	}
	for _, a := range b.enterprise {
		join(a, 1, 0.04, false)
	}
	// Named networks deploy at exchanges worldwide: clouds at most of
	// them (their PoPs sit in IXP/colo facilities, §2.2), Tier-1s and
	// Tier-2s at a smaller share. Their peering links are created later
	// by wireNamedPeering; membership here determines which of those
	// links get numbered from IXP LANs by package netdb.
	joinGlobal := func(a astopo.ASN, prob float64) {
		for k := range b.in.IXPs {
			if b.rng.Float64() < prob {
				b.in.IXPs[k].Members = append(b.in.IXPs[k].Members, a)
			}
		}
	}
	for _, p := range b.spec.Clouds {
		joinGlobal(p.ASN, 0.70)
	}
	for _, p := range b.spec.Hypergiants {
		joinGlobal(p.ASN, 0.50)
	}
	for _, p := range b.spec.Tier2 {
		joinGlobal(p.ASN, 0.35)
	}
	for _, p := range b.spec.Tier1 {
		joinGlobal(p.ASN, 0.20)
	}

	// Peering mesh: each co-located pair peers with the product of the
	// two members' class openness factors (see meshMembers).
	product := func(ci, cj ASClass) float64 {
		return b.spec.Openness[ci] * b.spec.Openness[cj]
	}
	b.peers = make([]astopo.Link, 0, b.peeringCapacity(product))
	for k := range b.in.IXPs {
		b.meshMembers(b.in.IXPs[k].Members, product, b.peer)
	}
}

// peeringCapacity sizes b.peers for the candidates of buildIXPs' meshes and
// wireNamedPeering: their expected count, bounded from above, plus four
// standard deviations, so the slice is allocated once. An exchange offers
// each pair of members with its class product, and a named profile offers
// each Tier-1, Tier-2, transit and edge AS its share (transits at a rank
// boost of 1, above the boosts' mean of 0.95). Each candidate is an
// independent draw, so the count's variance is below its mean.
func (b *builder) peeringCapacity(prob func(ci, cj ASClass) float64) int {
	var mean float64
	for _, x := range b.in.IXPs {
		var n [ClassCloud + 1]float64
		for _, m := range x.Members {
			n[b.as(m).class]++
		}
		for ci := range n {
			mean += n[ci] * (n[ci] - 1) / 2 * prob(ASClass(ci), ASClass(ci))
			for cj := ci + 1; cj < len(n); cj++ {
				mean += n[ci] * n[cj] * prob(ASClass(ci), ASClass(cj))
			}
		}
	}
	for _, group := range [][]Profile{b.spec.Tier1, b.spec.Tier2, b.spec.Clouds, b.spec.Hypergiants} {
		for _, p := range group {
			mean += p.PeerTier1*float64(len(b.spec.Tier1)) + p.PeerTier2*float64(len(b.spec.Tier2)) +
				p.PeerTransit*float64(len(b.transits)) +
				p.PeerAccess*float64(len(b.access)) + p.PeerContent*float64(len(b.content))
		}
	}
	return int(mean+4*math.Sqrt(mean)) + 64
}

// meshMembers draws a public peering mesh over one exchange's member list:
// every unordered pair of members is accepted with prob(classA, classB),
// and accepted pairs are handed to emit. The pair probability is constant
// across any pair of class buckets, so bucketing members by class and
// geometric skip-sampling each bucket pair visits only the accepted pairs,
// turning the mesh from O(members²) RNG draws into O(members + edges) —
// the difference between hours and seconds at the -scale 20 preset.
// Duplicate memberships are possible (an AS can appear twice at one IXP by
// the random join above); self pairs are skipped here and emit callers
// de-duplicate links. The RNG consumption for a given member list depends
// only on the probabilities, which keeps generation and the timeline's
// growth steps (which reuse this with marginal probabilities) replayable.
func (b *builder) meshMembers(members []astopo.ASN, prob func(ci, cj ASClass) float64, emit func(x, y astopo.ASN)) {
	var buckets [ClassCloud + 1][]astopo.ASN
	for _, m := range members {
		c := b.as(m).class
		buckets[c] = append(buckets[c], m)
	}
	for ci := range buckets {
		A := buckets[ci]
		p := prob(ASClass(ci), ASClass(ci))
		// Within-bucket pairs (i < j), row by row.
		for i := 0; i < len(A); i++ {
			ai := A[i]
			b.rowSample(len(A)-i-1, p, func(dj int) {
				if aj := A[i+1+dj]; ai != aj {
					emit(ai, aj)
				}
			})
		}
		// Cross-bucket pairs against every later class bucket.
		for cj := ci + 1; cj < len(buckets); cj++ {
			pc := prob(ASClass(ci), ASClass(cj))
			B := buckets[cj]
			for _, ai := range A {
				b.rowSample(len(B), pc, func(j int) {
					if aj := B[j]; ai != aj {
						emit(ai, aj)
					}
				})
			}
		}
	}
}

// rowSample invokes emit for each index of a virtual n-element row accepted
// by an independent Bernoulli(p) draw, visiting only the accepted indexes:
// the gap to the next acceptance is drawn from the geometric distribution
// as floor(ln(U)/ln(1-p)). Cost is O(accepted + 1) RNG draws instead of
// O(n).
func (b *builder) rowSample(n int, p float64, emit func(int)) {
	if n <= 0 || p <= 0 {
		return
	}
	if p >= 1 {
		for t := 0; t < n; t++ {
			emit(t)
		}
		return
	}
	logq := math.Log1p(-p)
	t := 0
	for {
		u := 1 - b.rng.Float64() // (0, 1]: ln is finite and <= 0
		skip := math.Floor(math.Log(u) / logq)
		if skip >= float64(n-t) {
			return
		}
		t += int(skip)
		emit(t)
		t++
		if t >= n {
			return
		}
	}
}

// wireNamedPeering applies each named profile's peering fractions: shares
// of the Tier-1 and Tier-2 sets, probability-scaled peering with regional
// transits (largest first — footprints are built out toward big peers, as
// Microsoft's traffic-volume validation in §5 implies), and Bernoulli
// peering with access and content edges.
func (b *builder) wireNamedPeering() {
	// Rank transits by customer count, descending; rankBoost concentrates
	// named networks' transit peerings on the top of that ranking.
	ranked := append([]astopo.ASN(nil), b.transits...)
	sort.Slice(ranked, func(i, j int) bool {
		ci, cj := b.as(ranked[i]).custs, b.as(ranked[j]).custs
		if ci != cj {
			return ci > cj
		}
		return ranked[i] < ranked[j]
	})
	rankBoost := func(pos int) float64 {
		frac := float64(pos) / float64(len(ranked))
		switch {
		case frac < 0.25:
			return 1.6
		case frac < 0.5:
			return 1.1
		case frac < 0.75:
			return 0.7
		default:
			return 0.4
		}
	}

	apply := func(p Profile) {
		for _, t := range b.spec.Tier1 {
			if t.ASN != p.ASN && b.rng.Float64() < p.PeerTier1 {
				b.peer(p.ASN, t.ASN)
			}
		}
		for _, t := range b.spec.Tier2 {
			if t.ASN != p.ASN && b.rng.Float64() < p.PeerTier2 {
				b.peer(p.ASN, t.ASN)
			}
		}
		for pos, a := range ranked {
			if a == p.ASN {
				continue
			}
			prob := p.PeerTransit * rankBoost(pos)
			if prob > 1 {
				prob = 1
			}
			if b.rng.Float64() < prob {
				b.peer(p.ASN, a)
			}
		}
		// Edge peerings are a constant Bernoulli per AS, so skip-sample
		// the accepted indexes instead of drawing once per edge AS.
		b.rowSample(len(b.access), p.PeerAccess, func(i int) {
			b.peer(p.ASN, b.access[i])
		})
		b.rowSample(len(b.content), p.PeerContent, func(i int) {
			if a := b.content[i]; a != p.ASN {
				b.peer(p.ASN, a)
			}
		})
	}
	for _, group := range [][]Profile{b.spec.Tier1, b.spec.Tier2, b.spec.Clouds, b.spec.Hypergiants} {
		for _, p := range group {
			apply(p)
		}
	}
}
