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
	var ixpByContinent [geo.NumContinents][]int // index into in.IXPs
	for k, city := range ixpCities()[:min(b.spec.NumIXPs, len(cities))] {
		b.in.IXPs = append(b.in.IXPs, IXP{City: city})
		ixpByContinent[cities[city].Continent] = append(ixpByContinent[cities[city].Continent], k)
	}

	// Membership: each synthetic class joins home-continent exchanges by
	// classJoin; transits and content try a few abroad after that.
	for _, list := range [][]astopo.ASN{b.transits, b.access, b.content, b.enterprise} {
		for _, a := range list {
			join := func(k int) { b.in.IXPs[k].Members = append(b.in.IXPs[k].Members, a) }
			r := b.as(a)
			maxJoin, prob, abroad := classJoin(r.class)
			joined := b.joinHome(ixpByContinent[cities[r.home].Continent], maxJoin, prob, join)
			for tries := 0; abroad && tries < 4 && joined < maxJoin; tries++ {
				k := b.rng.Intn(len(b.in.IXPs))
				if b.rng.Float64() < prob {
					join(k)
					joined++
				}
			}
		}
	}
	// Named networks join each exchange at their group's share. Their
	// peering links are created later by wireNamedPeering; membership
	// here determines which of those links get numbered from IXP LANs by
	// package netdb.
	for _, g := range namedShares(b.spec) {
		for _, p := range g.group {
			for k := range b.in.IXPs {
				if b.rng.Float64() < g.share {
					b.in.IXPs[k].Members = append(b.in.IXPs[k].Members, p.ASN)
				}
			}
		}
	}

	// Peering mesh: each co-located pair peers with the product of the
	// two members' class openness factors (see meshMembers).
	b.peers = make([]astopo.Link, 0, b.peeringCapacity(b.openness))
	for k := range b.in.IXPs {
		b.meshMembers(b.in.IXPs[k].Members, b.openness, b.peer)
	}
}

// ixpCities returns the gazetteer's cities by metro population, most
// populous first: the order exchanges open in, at generation and as the
// timeline adds them.
func ixpCities() []geo.CityID {
	cities := geo.Cities()
	order := make([]geo.CityID, len(cities))
	for i := range order {
		order[i] = geo.CityID(i)
	}
	sort.Slice(order, func(i, j int) bool { return cities[order[i]].PopM > cities[order[j]].PopM })
	return order
}

// classJoin returns a synthetic class's IXP membership behaviour: how many
// home-continent exchanges it joins at most, the probability of joining
// each candidate, and whether a generated AS of the class then tries
// exchanges abroad.
func classJoin(c ASClass) (maxJoin int, prob float64, abroad bool) {
	switch c {
	case ClassTransit:
		return 5, 0.55, true
	case ClassAccess:
		return 3, 0.30, false
	case ClassContent:
		return 4, 0.45, true
	case ClassEnterprise:
		return 1, 0.04, false
	}
	return 0, 0, false
}

// joinHome offers a joiner the exchanges cands in order, each with
// probability prob, until it has joined maxJoin; join is called with each
// exchange it joins. It returns how many it joined.
func (b *builder) joinHome(cands []int, maxJoin int, prob float64, join func(k int)) int {
	joined := 0
	for _, k := range cands {
		if joined >= maxJoin {
			break
		}
		if b.rng.Float64() < prob {
			join(k)
			joined++
		}
	}
	return joined
}

// namedShare is the share of exchanges each network of a named group joins.
type namedShare struct {
	group []Profile
	share float64
}

// namedShares lists the named groups in the order they sign up at an
// exchange, with their shares: clouds join most exchanges (their PoPs sit
// in IXP/colo facilities, §2.2), hypergiants half, Tier-2s and Tier-1s a
// smaller share.
func namedShares(sp Spec) []namedShare {
	return []namedShare{{sp.Clouds, 0.70}, {sp.Hypergiants, 0.50}, {sp.Tier2, 0.35}, {sp.Tier1, 0.20}}
}

// openness is the probability that two co-located members of classes ci
// and cj peer: the product of their classes' openness factors.
func (b *builder) openness(ci, cj ASClass) float64 {
	return b.spec.Openness[ci] * b.spec.Openness[cj]
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
// growth steps (which call this with marginal probabilities) replayable.
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
// peering with access and content edges. Each network grows from the zero
// profile, which peers with no one.
func (b *builder) wireNamedPeering() {
	ranked := b.rankTransits(b.transits)
	for _, group := range [][]Profile{b.spec.Tier1, b.spec.Tier2, b.spec.Clouds, b.spec.Hypergiants} {
		for _, p := range group {
			b.peerProfile(Profile{}, p, ranked, b.access, b.content, b.peer)
		}
	}
}

// rankTransits returns ts by customer count, descending, ties by ASN;
// rankBoost concentrates named networks' transit peerings on the top of
// that ranking.
func (b *builder) rankTransits(ts []astopo.ASN) []astopo.ASN {
	ranked := append([]astopo.ASN(nil), ts...)
	sort.Slice(ranked, func(i, j int) bool {
		ci, cj := b.as(ranked[i]).custs, b.as(ranked[j]).custs
		if ci != cj {
			return ci > cj
		}
		return ranked[i] < ranked[j]
	})
	return ranked
}

// rankBoost scales a named network's transit peering share by where the
// transit sits in rankTransits' order, as the fraction of the ranking
// above it: 1.6 in the top quartile down to 0.4 in the bottom one.
func rankBoost(frac float64) float64 {
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

// peerProfile offers a named network to's peerings as it grows from the
// profile from: each Tier-1, Tier-2, ranked transit, access and content
// AS is accepted with the marginal probability that lifts from's share of
// that group to to's (a transit's shares scaled by its rankBoost), and
// accepted pairs are handed to emit.
func (b *builder) peerProfile(from, to Profile, ranked, access, content []astopo.ASN, emit func(x, y astopo.ASN)) {
	a := to.ASN
	for _, t := range b.spec.Tier1 {
		if t.ASN != a && b.rng.Float64() < marginalProb(from.PeerTier1, to.PeerTier1) {
			emit(a, t.ASN)
		}
	}
	for _, t := range b.spec.Tier2 {
		if t.ASN != a && b.rng.Float64() < marginalProb(from.PeerTier2, to.PeerTier2) {
			emit(a, t.ASN)
		}
	}
	for pos, x := range ranked {
		if x == a {
			continue
		}
		boost := rankBoost(float64(pos) / float64(len(ranked)))
		if b.rng.Float64() < marginalProb(from.PeerTransit*boost, to.PeerTransit*boost) {
			emit(a, x)
		}
	}
	// Edge peerings are a constant Bernoulli per AS, so skip-sample the
	// accepted indexes instead of drawing once per edge AS.
	b.rowSample(len(access), marginalProb(from.PeerAccess, to.PeerAccess), func(i int) {
		emit(a, access[i])
	})
	b.rowSample(len(content), marginalProb(from.PeerContent, to.PeerContent), func(i int) {
		if x := content[i]; x != a {
			emit(a, x)
		}
	})
}

// marginalProb converts "linked with probability po in the old world" and
// "linked with probability pn in the new world" into the conditional
// probability of adding the link given it is absent, so the grown world
// matches the new link distribution: po + (1-po)*q = pn. From po = 0 it
// is pn itself, clamped to [0, 1].
func marginalProb(po, pn float64) float64 {
	po, pn = clamp01(po), clamp01(pn)
	if po >= 1 {
		return 0
	}
	return clamp01((pn - po) / (1 - po))
}
