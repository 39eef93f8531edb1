package topogen

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"flatnet/internal/astopo"
	"flatnet/internal/geo"
)

// synthBase is the first ASN used for unnamed, generated ASes. All named
// profiles use real ASNs below this value.
const synthBase astopo.ASN = 200000

// Generate builds a deterministic Internet from spec. Two calls with equal
// specs produce identical topologies.
func Generate(spec Spec) (*Internet, error) {
	if err := validate(spec); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	in := &Internet{
		Spec:        spec,
		Graph:       astopo.NewGraph(spec.NumASes, providerLinks(spec)),
		Tier1:       make(astopo.ASSet),
		Tier2:       make(astopo.ASSet),
		Clouds:      make(map[string]astopo.ASN),
		Hypergiants: make(map[string]astopo.ASN),
	}
	b := &builder{
		spec: spec, rng: rng, in: in,
		link: in.Graph.AddLinkIfAbsent,
		name: make(map[astopo.ASN]string),
		pops: make(map[astopo.ASN][]geo.CityID),
	}
	b.sizeTables(spec.NumASes)
	b.placeCities()
	b.createNamed()
	b.createSynthetic()
	b.wireTier1Clique()
	b.wireNamedProviders()
	b.wireTransitProviders(b.transits)
	b.wireEdgeProviders(b.access, b.content, b.enterprise)
	b.buildIXPs()
	b.wireNamedPeering()
	in.Graph.AddLinksIfAbsent(b.peers)
	in.Graph.Freeze()
	in.Meta = NewASMeta(in.Graph, b.annotation, b.name, b.pops)
	return in, nil
}

// providerLinks bounds the links the provider phases add one at a time:
// the Tier-1 clique, the named networks' providers, two per regional
// transit and the edge ASes' mean provider count (1.7, one more for
// content; see wireEdgeProviders), plus four standard deviations of the
// draw. It is the graph's link hint, which sizes the link slice and the
// pair set only these phases probe; the peering phases' links arrive in
// one batch that grows the slice once, to its exact size.
func providerLinks(spec Spec) int {
	t1 := len(spec.Tier1)
	n := t1*(t1-1)/2 + 2*spec.NumTransit
	for _, group := range [][]Profile{spec.Tier2, spec.Clouds, spec.Hypergiants} {
		for _, p := range group {
			n += p.ProviderCount
		}
	}
	mean := float64(n) + float64(spec.NumASes-spec.NumTransit)*(1.7+spec.FracContent)
	return int(mean+4*math.Sqrt(mean)) + 64
}

func validate(spec Spec) error {
	if spec.NumASes <= 0 {
		return fmt.Errorf("topogen: NumASes=%d is not a positive AS count; the topology scale must be a positive number", spec.NumASes)
	}
	// Synthetic ASes are numbered synthBase, synthBase+1, …; they must stay
	// inside the 32-bit ASN space.
	if uint64(spec.NumASes) > math.MaxUint32-uint64(synthBase) {
		return fmt.Errorf("topogen: NumASes=%d overflows the 32-bit ASN space above synthetic base AS%d; lower the topology scale",
			spec.NumASes, synthBase)
	}
	named := len(spec.Tier1) + len(spec.Tier2) + len(spec.Clouds) + len(spec.Hypergiants)
	if spec.NumASes < named+spec.NumTransit+10 {
		return fmt.Errorf("topogen: NumASes=%d too small for %d named + %d transit ASes",
			spec.NumASes, named, spec.NumTransit)
	}
	if spec.FracAccess+spec.FracContent > 1 {
		return fmt.Errorf("topogen: FracAccess+FracContent = %v > 1", spec.FracAccess+spec.FracContent)
	}
	if spec.NumIXPs <= 0 {
		return fmt.Errorf("topogen: NumIXPs must be positive")
	}
	seen := make(map[astopo.ASN]string)
	for _, group := range [][]Profile{spec.Tier1, spec.Tier2, spec.Clouds, spec.Hypergiants} {
		for _, p := range group {
			if p.ASN >= synthBase {
				return fmt.Errorf("topogen: profile %q ASN %d collides with synthetic range", p.Name, p.ASN)
			}
			if prev, dup := seen[p.ASN]; dup {
				return fmt.Errorf("topogen: ASN %d used by both %q and %q", p.ASN, prev, p.Name)
			}
			seen[p.ASN] = p.Name
		}
	}
	return nil
}

// builder holds the state the growth rules draw from and update. Generate
// runs every rule once over a new world; a timeline step (EvolveStep)
// rebuilds the state from its base world and runs the creation, provider,
// peering and exchange rules again over the year's new ASes.
type builder struct {
	spec Spec
	rng  *rand.Rand
	in   *Internet // the world Generate builds; nil in a timeline step

	// link adds a link unless its two ASes are equal or already linked,
	// and reports whether it did: the graph's AddLinkIfAbsent in
	// Generate, the delta-recording add in a timeline step.
	link func(a, b astopo.ASN, rel astopo.Rel) bool

	// per-AS annotations while the graph is still growing; converted to
	// the dense Internet.Meta table after Freeze. Generated ASes are
	// numbered densely from synthBase, so their rows sit in a slice
	// indexed by ASN-synthBase; the few named networks, numbered below
	// it, sit in a map (see as). Only the named networks have a name and
	// PoPs.
	synth []asRow
	named map[astopo.ASN]*asRow
	name  map[astopo.ASN]string
	pops  map[astopo.ASN][]geo.CityID

	// city machinery
	citiesByContinent [geo.NumContinents][]geo.CityID
	cityCum           [geo.NumContinents][]float64 // cumulative PopM for weighted draws
	allCityCum        []float64
	continentCum      []float64 // cumulative continent PopM, in geo.Continents() order

	// AS populations by class
	transits   []astopo.ASN
	access     []astopo.ASN
	content    []astopo.ASN
	enterprise []astopo.ASN

	// preferential-attachment urns
	transitUrn [geo.NumContinents][]astopo.ASN
	anyTransit []astopo.ASN
	tier2Urn   []astopo.ASN
	tier1Urn   []astopo.ASN

	// peers holds the peering phases' candidate links in emission order.
	// Their draws never depend on which links exist, so the candidates
	// are deduplicated once, against each other and the provider links,
	// when they are added to the graph.
	peers []astopo.Link
}

// asRow is one AS's annotations while the world is built.
type asRow struct {
	class ASClass
	home  geo.CityID
	custs int32 // customers won, which weight preferential attachment
	ixps  int32 // exchanges joined; a timeline step caps recruits by it
}

// sizeTables makes room for n generated ASes, numbered from synthBase.
func (b *builder) sizeTables(n int) {
	b.synth = make([]asRow, n)
	b.named = make(map[astopo.ASN]*asRow)
}

// as returns a's row. A generated AS's row is an index away; a named
// network's row is made on first use, zero like a map's missing value.
func (b *builder) as(a astopo.ASN) *asRow {
	if a >= synthBase {
		return &b.synth[a-synthBase]
	}
	r := b.named[a]
	if r == nil {
		r = new(asRow)
		b.named[a] = r
	}
	return r
}

// annotation returns a's class and home city.
func (b *builder) annotation(a astopo.ASN) (ASClass, geo.CityID) {
	r := b.as(a)
	return r.class, r.home
}

// peer records a candidate peering link between x and y.
func (b *builder) peer(x, y astopo.ASN) {
	b.peers = append(b.peers, astopo.Link{A: x, B: y, Rel: astopo.P2P})
}

func (b *builder) placeCities() {
	cities := geo.Cities()
	for i := range cities {
		c := cities[i].Continent
		b.citiesByContinent[c] = append(b.citiesByContinent[c], geo.CityID(i))
	}
	for cont, ids := range b.citiesByContinent {
		cum := make([]float64, len(ids))
		var s float64
		for i, id := range ids {
			s += cities[id].PopM
			cum[i] = s
		}
		b.cityCum[cont] = cum
	}
	b.allCityCum = make([]float64, len(cities))
	var s float64
	for i := range cities {
		s += cities[i].PopM
		b.allCityCum[i] = s
	}
	conts, pops := geo.Continents(), geo.ContinentPopulationM()
	b.continentCum = make([]float64, len(conts))
	s = 0
	for i, c := range conts {
		s += pops[c]
		b.continentCum[i] = s
	}
}

// randCity draws a city weighted by metro population, optionally restricted
// to a continent.
func (b *builder) randCity(cont geo.Continent, anyContinent bool) geo.CityID {
	if anyContinent {
		return geo.CityID(weightedIndex(b.rng, b.allCityCum))
	}
	ids := b.citiesByContinent[cont]
	return ids[weightedIndex(b.rng, b.cityCum[cont])]
}

// randContinent draws a continent weighted by its gazetteer population.
func (b *builder) randContinent() geo.Continent {
	return geo.Continents()[weightedIndex(b.rng, b.continentCum)]
}

func weightedIndex(rng *rand.Rand, cum []float64) int {
	x := rng.Float64() * cum[len(cum)-1]
	i := sort.SearchFloat64s(cum, x)
	if i >= len(cum) {
		i = len(cum) - 1
	}
	return i
}

func (b *builder) createNamed() {
	in := b.in
	register := func(p Profile, class ASClass) {
		b.as(p.ASN).class = class
		b.name[p.ASN] = p.Name
		b.pops[p.ASN] = b.pickPoPs(p)
		if len(b.pops[p.ASN]) > 0 {
			b.as(p.ASN).home = b.pops[p.ASN][0]
		}
	}
	for _, p := range b.spec.Tier1 {
		register(p, ClassTier1)
		in.Tier1.Add(p.ASN)
	}
	for _, p := range b.spec.Tier2 {
		register(p, ClassTier2)
		in.Tier2.Add(p.ASN)
	}
	for _, p := range b.spec.Clouds {
		register(p, ClassCloud)
		in.Clouds[p.Name] = p.ASN
	}
	for _, p := range b.spec.Hypergiants {
		register(p, p.Class)
		in.Hypergiants[p.Name] = p.ASN
		switch p.Class {
		case ClassContent:
			b.content = append(b.content, p.ASN)
		case ClassTransit:
			b.transits = append(b.transits, p.ASN)
		}
	}
}

// pickPoPs selects PoP cities for a named network: population-weighted,
// restricted to North America / Europe / Asia unless the profile is Global.
// Only cloud providers deploy in Shanghai and Beijing (the Fig. 11
// observation that those are the two cloud-only locations).
func (b *builder) pickPoPs(p Profile) []geo.CityID {
	if p.PoPCount <= 0 {
		return nil
	}
	core := []geo.Continent{geo.NorthAmerica, geo.Europe, geo.Asia}
	var pops []geo.CityID
	seen := make(map[geo.CityID]bool)
	shanghai := geo.CityByIATA("pvg")
	beijing := geo.CityByIATA("pek")
	for tries := 0; len(pops) < p.PoPCount && tries < p.PoPCount*30; tries++ {
		var id geo.CityID
		if p.Global && b.rng.Float64() < 0.30 {
			id = b.randCity(0, true)
		} else {
			id = b.randCity(core[b.rng.Intn(len(core))], false)
		}
		if (id == shanghai || id == beijing) && p.Class != ClassCloud {
			continue
		}
		if !seen[id] {
			seen[id] = true
			pops = append(pops, id)
		}
	}
	return pops
}

// createSynthetic creates the spec's unnamed ASes and seeds the
// attachment urns: every transit, the hypergiants classed as transit
// first, and every Tier-2 and Tier-1 once.
func (b *builder) createSynthetic() {
	named := len(b.name)
	nEdge := b.spec.NumASes - named - b.spec.NumTransit
	nAccess := int(float64(nEdge) * b.spec.FracAccess)
	nContent := int(float64(nEdge) * b.spec.FracContent)
	for _, a := range b.transits {
		b.urnTransit(a)
	}
	b.createASes(synthBase, b.spec.NumTransit, nAccess, nContent, nEdge-nAccess-nContent)
	for _, p := range b.spec.Tier2 {
		b.tier2Urn = append(b.tier2Urn, p.ASN)
	}
	for _, p := range b.spec.Tier1 {
		b.tier1Urn = append(b.tier1Urn, p.ASN)
	}
}

// createASes creates nTransit transit ASes, then nAccess access, nContent
// content and nEnterprise enterprise ones, numbered on from first. Each
// draws a continent by population, then a city on it, for its home. They
// join the builder's class lists, and each new transit goes into the
// transit urns once.
func (b *builder) createASes(first astopo.ASN, nTransit, nAccess, nContent, nEnterprise int) {
	next := first
	create := func(class ASClass, n int, list *[]astopo.ASN) {
		for i := 0; i < n; i++ {
			r := b.as(next)
			r.class = class
			r.home = b.randCity(b.randContinent(), false)
			*list = append(*list, next)
			next++
		}
	}
	create(ClassTransit, nTransit, &b.transits)
	for _, a := range b.transits[len(b.transits)-nTransit:] {
		b.urnTransit(a)
	}
	create(ClassAccess, nAccess, &b.access)
	create(ClassContent, nContent, &b.content)
	create(ClassEnterprise, nEnterprise, &b.enterprise)
}

// urnTransit puts one more ball for transit a into its home continent's
// urn and into the worldwide one.
func (b *builder) urnTransit(a astopo.ASN) {
	cont := geo.Cities()[b.as(a).home].Continent
	b.transitUrn[cont] = append(b.transitUrn[cont], a)
	b.anyTransit = append(b.anyTransit, a)
}

// addProvider links prov above cust through b.link and, when the link is
// new, counts the customer toward prov's attachment weight.
func (b *builder) addProvider(prov, cust astopo.ASN) bool {
	if !b.link(prov, cust, astopo.P2C) {
		return false
	}
	b.as(prov).custs++
	return true
}

func (b *builder) wireTier1Clique() {
	t1 := b.spec.Tier1
	for i := range t1 {
		for j := i + 1; j < len(t1); j++ {
			b.in.Graph.MustAddLink(t1[i].ASN, t1[j].ASN, astopo.P2P)
		}
	}
}

// pickProviders selects a profile's transit providers: its
// PreferredProviders, then Tier-1s until Tier1Provs of the choice are in
// the clique, then Tier-2s and large transits for the remainder.
func (b *builder) pickProviders(p Profile) []astopo.ASN {
	var provs []astopo.ASN
	used := map[astopo.ASN]bool{p.ASN: true}
	take := func(a astopo.ASN) {
		if !used[a] {
			used[a] = true
			provs = append(provs, a)
		}
	}
	for _, a := range p.PreferredProviders {
		take(a)
	}
	b.drawProviders(
		func() bool {
			nT1 := 0
			for _, a := range provs {
				if b.as(a).class == ClassTier1 {
					nT1++
				}
			}
			return nT1 < p.Tier1Provs
		},
		func() bool { return len(provs) < p.ProviderCount },
		take)
	if len(provs) > p.ProviderCount && p.ProviderCount > 0 {
		provs = provs[:p.ProviderCount]
	}
	return provs
}

// drawProviders offers take the Tier-1s in a random order while moreT1
// reports that another is wanted, then draws from the Tier-2 and transit
// urns, without replacement, while more does.
func (b *builder) drawProviders(moreT1, more func() bool, take func(a astopo.ASN)) {
	for _, i := range b.rng.Perm(len(b.spec.Tier1)) {
		if !moreT1() {
			break
		}
		take(b.spec.Tier1[i].ASN)
	}
	if !more() {
		return
	}
	pool := append(append([]astopo.ASN(nil), b.tier2Urn...), b.anyTransit...)
	for more() && len(pool) > 0 {
		i := b.rng.Intn(len(pool))
		take(pool[i])
		pool = append(pool[:i], pool[i+1:]...)
	}
}

func (b *builder) wireNamedProviders() {
	groups := [][]Profile{b.spec.Tier2, b.spec.Clouds, b.spec.Hypergiants}
	for _, group := range groups {
		for _, p := range group {
			for _, prov := range b.pickProviders(p) {
				b.addProvider(prov, p.ASN)
			}
		}
	}
}

// wireTransitProviders gives each regional transit of ts 1–3 providers
// drawn from the Tier-1s and Tier-2s (Tier-2-heavy, mirroring the
// hierarchy).
func (b *builder) wireTransitProviders(ts []astopo.ASN) {
	var usedBuf [4]astopo.ASN // the transit and its at most three providers
	for _, a := range ts {
		if _, named := b.name[a]; named {
			continue // hypergiant transit profiles picked their own
		}
		n := 1 + b.rng.Intn(3)
		used := append(usedBuf[:0], a)
		for len(used)-1 < n {
			var prov astopo.ASN
			if b.rng.Float64() < 0.35 {
				prov = b.tier1Urn[b.rng.Intn(len(b.tier1Urn))]
			} else {
				prov = b.tier2Urn[b.rng.Intn(len(b.tier2Urn))]
			}
			if slices.Contains(used, prov) {
				continue
			}
			used = append(used, prov)
			if !b.addProvider(prov, a) {
				continue // already related (e.g. a named profile chose this transit as its provider)
			}
			// Preferential attachment: providers that win customers
			// become likelier to win more.
			if b.as(prov).class == ClassTier1 {
				b.tier1Urn = append(b.tier1Urn, prov)
			} else {
				b.tier2Urn = append(b.tier2Urn, prov)
			}
		}
	}
}

// wireEdgeProviders attaches the access, content, and enterprise ASes of
// lists, in order, to the hierarchy: mostly same-continent regional
// transits (with preferential attachment), sometimes Tier-2s or Tier-1s
// directly.
func (b *builder) wireEdgeProviders(lists ...[]astopo.ASN) {
	var usedBuf [5]astopo.ASN // the edge AS and its at most four providers
	attach := func(a astopo.ASN, nProv int) {
		cont := geo.Cities()[b.as(a).home].Continent
		used := append(usedBuf[:0], a)
		for len(used)-1 < nProv {
			var prov astopo.ASN
			switch r := b.rng.Float64(); {
			case r < 0.72 && len(b.transitUrn[cont]) > 0:
				urn := b.transitUrn[cont]
				prov = urn[b.rng.Intn(len(urn))]
			case r < 0.86:
				prov = b.anyTransit[b.rng.Intn(len(b.anyTransit))]
			case r < 0.95:
				prov = b.tier2Urn[b.rng.Intn(len(b.tier2Urn))]
			default:
				prov = b.tier1Urn[b.rng.Intn(len(b.tier1Urn))]
			}
			if slices.Contains(used, prov) {
				continue
			}
			used = append(used, prov)
			if b.addProvider(prov, a) && b.as(prov).class == ClassTransit {
				b.urnTransit(prov)
			}
		}
	}
	nProviders := func() int {
		switch r := b.rng.Float64(); {
		case r < 0.45:
			return 1
		case r < 0.85:
			return 2
		default:
			return 3
		}
	}
	for _, list := range lists {
		for _, a := range list {
			n := nProviders()
			if b.as(a).class == ClassContent {
				n++ // content multihomes more
			}
			attach(a, n)
		}
	}
}
