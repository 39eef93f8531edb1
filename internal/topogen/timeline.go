// Timeline: the longitudinal preset family. SpecForYear interpolates the
// calibrated 2015 and 2020 presets year by year (and extrapolates the same
// trends to 2025); EvolveStep derives the deterministic growth delta that
// turns one year's world into the next; ApplyDelta applies such a delta
// structurally. GenerateYear composes them: the 2015 world evolved forward
// one year at a time.
//
// The factorization is what makes longitudinal worlds cheap to verify:
// a "fresh" year-N world and a "delta-evolved" year-N world are the same
// code path (both are ApplyDelta folds over the same GrowthDelta values),
// so they are byte-identical by construction, and the only property that
// needs testing is that EvolveStep is deterministic.
package topogen

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"

	"flatnet/internal/astopo"
	"flatnet/internal/geo"
)

const (
	// TimelineFirstYear is the first year of the longitudinal family (the
	// paper's 2015 retrospective calibration).
	TimelineFirstYear = 2015
	// TimelineLastYear bounds the extrapolation: five years past the 2020
	// measurement, continuing the same linear trends.
	TimelineLastYear = 2025
)

// timelineChurn is the yearly fraction of synthetic-synthetic public
// peerings that disappear between adjacent years (depeering, mergers,
// IXP port shutdowns). Only p2p links between unnamed ASes churn: p2c
// links never do, so no AS is ever stranded without a provider.
const timelineChurn = 0.015

// SeedForYear is the timeline seed schedule. It reproduces the calibrated
// preset seeds exactly (2015 -> 20150901, 2020 -> 20200901), so the
// timeline's base year is bit-identical to the existing 2015 preset world.
func SeedForYear(year int) int64 { return int64(year)*10000 + 901 }

// lerpYear linearly interpolates a knob between its 2015 and 2020
// calibrations, extrapolating the same slope past 2020. The anchors are
// returned verbatim so the anchor years reproduce the presets exactly
// (no floating-point round trip).
func lerpYear(year int, v2015, v2020 float64) float64 {
	switch year {
	case 2015:
		return v2015
	case 2020:
		return v2020
	}
	return v2015 + (v2020-v2015)*float64(year-2015)/5
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func lerpProb(year int, a, b float64) float64 { return clamp01(lerpYear(year, a, b)) }

func lerpCount(year int, a, b int) int {
	v := lerpYear(year, float64(a), float64(b))
	if v < 0 {
		v = 0
	}
	return int(v + 0.5)
}

// lerpCloudProfile interpolates one cloud's calibration knobs between its
// 2015 and 2020 footprints. Booleans and preferred-provider lists switch
// at 2020 (a footprint globalizes once built out, it does not blend).
func lerpCloudProfile(year int, a, b Profile) Profile {
	p := b
	if year < 2020 {
		p.Global = a.Global
		p.PreferredProviders = a.PreferredProviders
	}
	p.ProviderCount = lerpCount(year, a.ProviderCount, b.ProviderCount)
	p.Tier1Provs = lerpCount(year, a.Tier1Provs, b.Tier1Provs)
	p.PoPCount = lerpCount(year, a.PoPCount, b.PoPCount)
	p.PeerTier1 = lerpProb(year, a.PeerTier1, b.PeerTier1)
	p.PeerTier2 = lerpProb(year, a.PeerTier2, b.PeerTier2)
	p.PeerTransit = lerpProb(year, a.PeerTransit, b.PeerTransit)
	p.PeerAccess = lerpProb(year, a.PeerAccess, b.PeerAccess)
	p.PeerContent = lerpProb(year, a.PeerContent, b.PeerContent)
	return p
}

// cloudProfilesForYear returns the clouds' interpolated footprints: the
// calibrated profiles at the anchor years, per-knob linear blends (and
// extrapolations) elsewhere. Tier-1, Tier-2, and hypergiant profiles stay
// constant across the family — the paper's longitudinal story is the
// clouds' flattening, not the hierarchy's membership.
func cloudProfilesForYear(year int) []Profile {
	switch {
	case year <= 2015:
		return cloudProfiles2015()
	case year == 2020:
		return cloudProfiles2020()
	}
	from, to := cloudProfiles2015(), cloudProfiles2020()
	out := make([]Profile, len(to))
	for i := range to {
		out[i] = lerpCloudProfile(year, from[i], to[i])
	}
	return out
}

// SpecForYear returns the longitudinal preset for one year at the given
// true scale. The 2015 and 2020 entries are exactly Internet2015 and
// Internet2020; intermediate years interpolate every growth knob (AS
// count, IXP count at +3/year, per-class openness, content fraction,
// cloud footprints) and 2021–2025 extrapolate the same linear trends.
// The openness damping anchor tracks the interpolated AS count so link
// density stays scale-invariant across the whole family.
func SpecForYear(year int, scale float64) (Spec, error) {
	if year < TimelineFirstYear || year > TimelineLastYear {
		return Spec{}, fmt.Errorf("topogen: year %d outside timeline range %d..%d",
			year, TimelineFirstYear, TimelineLastYear)
	}
	switch year {
	case 2015:
		return Internet2015(scale), nil
	case 2020:
		return Internet2020(scale), nil
	}
	base := lerpYear(year, 51801, 69488)
	n := int(base * scale)
	n0 := int(base * 0.04987) // reproduces the 2583 / 3465 preset anchors
	return Spec{
		Name:       strconv.Itoa(year),
		Seed:       SeedForYear(year),
		NumASes:    n,
		NumTransit: n / 20,
		FracAccess: 0.48, FracContent: lerpYear(year, 0.11, 0.13),
		NumIXPs: 45 + 3*(year-2015),
		Openness: dampOpenness(map[ASClass]float64{
			ClassTransit:    lerpYear(year, 0.16, 0.20),
			ClassAccess:     lerpYear(year, 0.15, 0.20),
			ClassContent:    lerpYear(year, 0.30, 0.38),
			ClassEnterprise: lerpYear(year, 0.02, 0.03),
		}, opennessDamping(n, n0)),
		Tier1:       tier1Profiles(),
		Tier2:       tier2Profiles(),
		Clouds:      cloudProfilesForYear(year),
		Hypergiants: hypergiantProfiles(),
	}, nil
}

// NewAS describes one AS created by a growth step.
type NewAS struct {
	ASN   astopo.ASN
	Class ASClass
	Home  geo.CityID
}

// IXPJoin records an AS joining an exchange that already existed in the
// base world; IXP indexes the base world's IXP list.
type IXPJoin struct {
	IXP    int32
	Member astopo.ASN
}

// NewIXP is an exchange opened by a growth step, with its initial members.
type NewIXP struct {
	City    geo.CityID
	Members []astopo.ASN
}

// GrowthDelta is the complete, ordered difference between two adjacent
// years of one timeline world: every AS created, every link added or
// removed (in application order), and every IXP membership change.
// Applying it to the FromYear world with ApplyDelta reproduces the ToYear
// world exactly.
type GrowthDelta struct {
	FromYear, ToYear int
	Scale            float64

	NewASes      []NewAS
	RemovedLinks []astopo.Link
	AddedLinks   []astopo.Link
	IXPJoins     []IXPJoin
	NewIXPs      []NewIXP
}

// specYear parses the year a spec names. Timeline specs are named by their
// year (the presets already follow this: "2015", "2020").
func specYear(sp Spec) (int, error) {
	y, err := strconv.Atoi(sp.Name)
	if err != nil {
		return 0, fmt.Errorf("topogen: spec %q is not a timeline year", sp.Name)
	}
	return y, nil
}

// classJoin returns the IXP membership behaviour of a synthetic class:
// how many home-continent exchanges it joins at most, and the probability
// of joining each candidate (the same constants buildIXPs uses).
func classJoin(c ASClass) (maxJoin int, prob float64) {
	switch c {
	case ClassTransit:
		return 5, 0.55
	case ClassAccess:
		return 3, 0.30
	case ClassContent:
		return 4, 0.45
	case ClassEnterprise:
		return 1, 0.04
	}
	return 0, 0
}

// marginalProb converts "linked with probability po in the old world" and
// "linked with probability pn in the new world" into the conditional
// probability of adding the link given it is absent, so the evolved world
// matches the new year's link distribution: po + (1-po)*q = pn.
func marginalProb(po, pn float64) float64 {
	po, pn = clamp01(po), clamp01(pn)
	if po >= 1 {
		return 0
	}
	return clamp01((pn - po) / (1 - po))
}

// evolver holds one growth step's working state.
type evolver struct {
	b        *builder // rng, city machinery, class/home maps, urns
	prev     *Internet
	prevSpec Spec
	spec     Spec
	d        *GrowthDelta

	pending map[uint64]bool // links added this step
	removed map[uint64]bool // links churned away this step

	// class boundaries: indices below these counts in the builder's class
	// lists are ASes that already existed in the base world.
	oldTransits, oldAccess, oldContent int

	memberCount map[astopo.ASN]int // IXP memberships per AS (cap bookkeeping)
	// ixpClasses is each base exchange's evolving membership split by
	// class, in join order: index = base IXP index. A joining member is
	// appended to its class's bucket.
	ixpClasses [][ClassCloud + 1][]astopo.ASN
}

// EvolveStep computes the deterministic growth delta from prev (a world of
// year Y at the given scale) to year == Y+1. It draws from an rng seeded
// by SeedForYear(year) and rebuilds all sampling state (class lists, urns,
// customer counts) from prev's graph and annotations, so equal inputs
// always produce the identical delta.
func EvolveStep(prev *Internet, year int, scale float64) (*GrowthDelta, error) {
	fromYear, err := specYear(prev.Spec)
	if err != nil {
		return nil, err
	}
	if year != fromYear+1 {
		return nil, fmt.Errorf("topogen: cannot evolve a %d world to %d: growth steps are adjacent years", fromYear, year)
	}
	spec, err := SpecForYear(year, scale)
	if err != nil {
		return nil, err
	}
	if err := validate(spec); err != nil {
		return nil, err
	}

	e := &evolver{
		prev:     prev,
		prevSpec: prev.Spec,
		spec:     spec,
		d:        &GrowthDelta{FromYear: fromYear, ToYear: year, Scale: scale},
		pending:  make(map[uint64]bool),
		removed:  make(map[uint64]bool),
	}
	e.b = &builder{spec: spec, rng: rand.New(rand.NewSource(SeedForYear(year)))}
	e.b.placeCities()
	if err := e.rebuildState(); err != nil {
		return nil, err
	}

	e.churnLinks()
	e.growASes()
	e.wireNamedToNewASes()
	e.joinExistingIXPs()
	e.openIXPs()
	e.growOpenness()
	e.growCloudProviders()
	e.growCloudPeering()
	return e.d, nil
}

// rebuildState reconstructs the builder's sampling state from the base
// world: per-AS class/home from the dense meta table, class lists in
// dense (sorted-ASN) order, customer counts from the CSR rows, and the
// preferential-attachment urns with multiplicity 1 + customer count (an
// AS that won customers is proportionally likelier to win more).
func (e *evolver) rebuildState() error {
	b, prev := e.b, e.prev
	g := prev.Graph
	n := g.NumASes()
	// The builder holds a row for every generated AS up to the last one
	// this step creates (see growASes). A generated world numbers its
	// ASes below synthBase plus its AS count; a base world past that is
	// refused rather than given rows up to its largest ASN.
	next := synthBase
	if n > 0 && g.ASNAt(n-1) >= synthBase {
		next = g.ASNAt(n-1) + 1
	}
	if uint64(next) > uint64(synthBase)+uint64(n) {
		return fmt.Errorf("topogen: base world numbers AS%d among %d ASes; it is not a generated world", next-1, n)
	}
	b.sizeTables(int(next-synthBase) + max(0, e.spec.NumASes-n))
	b.name = make(map[astopo.ASN]string, len(e.spec.Tier1)+len(e.spec.Tier2)+len(e.spec.Clouds)+len(e.spec.Hypergiants))
	b.pops = make(map[astopo.ASN][]geo.CityID)

	cities := geo.Cities()
	m := prev.Meta
	for i, a := range g.ASes() {
		b.as(a).class = m.Class[i]
		b.as(a).home = m.Home[i]
		if m.NameOff[i] != m.NameOff[i+1] {
			b.name[a] = string(m.NameBlob[m.NameOff[i]:m.NameOff[i+1]])
		}
		if pops := m.PoPArena[m.PoPOff[i]:m.PoPOff[i+1]]; len(pops) > 0 {
			b.pops[a] = pops
		}
		custs := len(g.CustomersOf(i))
		b.as(a).custs = custs
		switch m.Class[i] {
		case ClassTransit:
			b.transits = append(b.transits, a)
			cont := cities[m.Home[i]].Continent
			for k := 0; k < 1+custs; k++ {
				b.transitUrn[cont] = append(b.transitUrn[cont], a)
				b.anyTransit = append(b.anyTransit, a)
			}
		case ClassAccess:
			b.access = append(b.access, a)
		case ClassContent:
			b.content = append(b.content, a)
		case ClassEnterprise:
			b.enterprise = append(b.enterprise, a)
		}
	}
	for _, p := range e.spec.Tier2 {
		for k := 0; k < 1+b.as(p.ASN).custs; k++ {
			b.tier2Urn = append(b.tier2Urn, p.ASN)
		}
	}
	for _, p := range e.spec.Tier1 {
		for k := 0; k < 1+b.as(p.ASN).custs; k++ {
			b.tier1Urn = append(b.tier1Urn, p.ASN)
		}
	}
	e.oldTransits, e.oldAccess, e.oldContent = len(b.transits), len(b.access), len(b.content)

	e.memberCount = make(map[astopo.ASN]int)
	e.ixpClasses = make([][ClassCloud + 1][]astopo.ASN, len(prev.IXPs))
	for k := range prev.IXPs {
		for _, a := range prev.IXPs[k].Members {
			if a >= next {
				return fmt.Errorf("topogen: IXP %d lists AS%d, which the base world does not number", k, a)
			}
			e.memberCount[a]++
			c := b.as(a).class
			e.ixpClasses[k][c] = append(e.ixpClasses[k][c], a)
		}
	}
	return nil
}

// linked reports whether a link between x and y exists in the evolved
// world so far: present in the base world (and not churned away) or added
// earlier in this step.
func (e *evolver) linked(x, y astopo.ASN) bool {
	k := astopo.PairKey(x, y)
	if e.pending[k] {
		return true
	}
	if e.removed[k] {
		return false
	}
	_, ok := e.prev.Graph.HasLink(x, y)
	return ok
}

func (e *evolver) addPeer(x, y astopo.ASN) {
	if x == y || e.linked(x, y) {
		return
	}
	e.pending[astopo.PairKey(x, y)] = true
	e.d.AddedLinks = append(e.d.AddedLinks, astopo.Link{A: x, B: y, Rel: astopo.P2P})
}

func (e *evolver) addProvider(prov, cust astopo.ASN) bool {
	if prov == cust || e.linked(prov, cust) {
		return false
	}
	e.pending[astopo.PairKey(prov, cust)] = true
	e.d.AddedLinks = append(e.d.AddedLinks, astopo.Link{A: prov, B: cust, Rel: astopo.P2C})
	e.b.as(prov).custs++
	return true
}

// churnLinks removes a small fraction of the synthetic-synthetic public
// peerings, in link-storage order. Provider links never churn.
func (e *evolver) churnLinks() {
	links := e.prev.Graph.Links()
	cands := make([]astopo.Link, 0, len(links)/2)
	for _, l := range links {
		if l.Rel == astopo.P2P && l.A >= synthBase && l.B >= synthBase {
			cands = append(cands, l)
		}
	}
	e.b.rowSample(len(cands), timelineChurn, func(i int) {
		l := cands[i]
		e.removed[astopo.PairKey(l.A, l.B)] = true
		e.d.RemovedLinks = append(e.d.RemovedLinks, l)
	})
}

// growASes creates the year's new ASes — the AS-count curve's increment,
// split into transits and edge classes by the new year's fractions — and
// attaches them to the hierarchy exactly the way the generator attaches
// their peers at birth (same urns, same probability ladder).
func (e *evolver) growASes() {
	b := e.b
	dn := e.spec.NumASes - e.prev.Graph.NumASes()
	if dn < 0 {
		dn = 0
	}
	dTransit := e.spec.NumTransit - e.prevSpec.NumTransit
	if dTransit < 0 {
		dTransit = 0
	}
	if dTransit > dn {
		dTransit = dn
	}
	rest := dn - dTransit
	nAccess := int(float64(rest) * e.spec.FracAccess)
	nContent := int(float64(rest) * e.spec.FracContent)
	nEnterprise := rest - nAccess - nContent

	nodes := e.prev.Graph.ASes()
	next := synthBase
	if len(nodes) > 0 && nodes[len(nodes)-1] >= synthBase {
		next = nodes[len(nodes)-1] + 1
	}
	cities := geo.Cities()
	create := func(class ASClass) astopo.ASN {
		a := next
		next++
		cont := b.randContinent()
		city := b.randCity(cont, false)
		b.as(a).class = class
		b.as(a).home = city
		e.d.NewASes = append(e.d.NewASes, NewAS{ASN: a, Class: class, Home: city})
		return a
	}
	newTransits := make([]astopo.ASN, 0, dTransit)
	for i := 0; i < dTransit; i++ {
		a := create(ClassTransit)
		b.transits = append(b.transits, a)
		newTransits = append(newTransits, a)
		cont := cities[b.as(a).home].Continent
		b.transitUrn[cont] = append(b.transitUrn[cont], a)
		b.anyTransit = append(b.anyTransit, a)
	}
	newEdges := make([]astopo.ASN, 0, rest)
	for i := 0; i < nAccess; i++ {
		a := create(ClassAccess)
		b.access = append(b.access, a)
		newEdges = append(newEdges, a)
	}
	for i := 0; i < nContent; i++ {
		a := create(ClassContent)
		b.content = append(b.content, a)
		newEdges = append(newEdges, a)
	}
	for i := 0; i < nEnterprise; i++ {
		a := create(ClassEnterprise)
		b.enterprise = append(b.enterprise, a)
		newEdges = append(newEdges, a)
	}

	// Providers: new transits buy from the Tier-1/Tier-2 urns, new edges
	// attach mostly to same-continent transits — the same ladder and urn
	// growth as wireTransitProviders / wireEdgeProviders.
	var usedBuf [5]astopo.ASN // the new AS and its at most four providers
	for _, a := range newTransits {
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
			if !e.addProvider(prov, a) {
				continue
			}
			if e.prev.Tier1.Has(prov) {
				b.tier1Urn = append(b.tier1Urn, prov)
			} else {
				b.tier2Urn = append(b.tier2Urn, prov)
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
	for _, a := range newEdges {
		nProv := nProviders()
		if b.as(a).class == ClassContent {
			nProv++ // content multihomes more
		}
		cont := cities[b.as(a).home].Continent
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
			if !e.addProvider(prov, a) {
				continue
			}
			if b.as(prov).class == ClassTransit {
				pc := cities[b.as(prov).home].Continent
				b.transitUrn[pc] = append(b.transitUrn[pc], prov)
				b.anyTransit = append(b.anyTransit, prov)
			}
		}
	}
}

// wireNamedToNewASes gives every named network its calibrated peering
// chance with the ASes born this year (in a fresh build those edges would
// have faced the full Bernoulli). New transits enter at the bottom of the
// size ranking, so they get the bottom-quartile rank boost.
func (e *evolver) wireNamedToNewASes() {
	b := e.b
	newTransits := b.transits[e.oldTransits:]
	newAccess := b.access[e.oldAccess:]
	newContent := b.content[e.oldContent:]
	groups := [][]Profile{e.spec.Tier1, e.spec.Tier2, e.spec.Clouds, e.spec.Hypergiants}
	for _, group := range groups {
		for _, p := range group {
			b.rowSample(len(newTransits), clamp01(p.PeerTransit*0.4), func(i int) {
				e.addPeer(p.ASN, newTransits[i])
			})
			b.rowSample(len(newAccess), p.PeerAccess, func(i int) {
				e.addPeer(p.ASN, newAccess[i])
			})
			b.rowSample(len(newContent), p.PeerContent, func(i int) {
				e.addPeer(p.ASN, newContent[i])
			})
		}
	}
}

// meshAgainst peers one joining member against an exchange's current
// membership, bucketed by class, with the new year's openness products.
func (e *evolver) meshAgainst(a astopo.ASN, buckets *[ClassCloud + 1][]astopo.ASN) {
	b := e.b
	pa := b.spec.Openness[b.as(a).class]
	if pa <= 0 {
		return
	}
	for ci := range buckets {
		p := pa * b.spec.Openness[ASClass(ci)]
		B := buckets[ci]
		b.rowSample(len(B), p, func(j int) {
			e.addPeer(a, B[j])
		})
	}
}

// joinExistingIXPs signs the year's new ASes up at exchanges that already
// exist, with the same per-class membership behaviour the generator uses,
// and draws their public peerings against the members already there.
func (e *evolver) joinExistingIXPs() {
	b := e.b
	cities := geo.Cities()
	var ixpByCont [geo.NumContinents][]int
	for k := range e.prev.IXPs {
		c := cities[e.prev.IXPs[k].City].Continent
		ixpByCont[c] = append(ixpByCont[c], k)
	}
	join := func(k int, a astopo.ASN) {
		e.meshAgainst(a, &e.ixpClasses[k])
		c := b.as(a).class
		e.ixpClasses[k][c] = append(e.ixpClasses[k][c], a)
		e.memberCount[a]++
		e.d.IXPJoins = append(e.d.IXPJoins, IXPJoin{IXP: int32(k), Member: a})
	}
	for _, na := range e.d.NewASes {
		maxJoin, prob := classJoin(na.Class)
		if maxJoin == 0 {
			continue
		}
		joined := 0
		for _, k := range ixpByCont[cities[na.Home].Continent] {
			if joined >= maxJoin {
				break
			}
			if b.rng.Float64() < prob {
				join(k, na.ASN)
				joined++
			}
		}
	}
}

// openIXPs places the year's new exchanges in the next most populous
// cities, recruits members (synthetic classes from the exchange's home
// continent, capped by their per-class membership budgets; named networks
// with their global join shares), and draws the full public mesh among
// the initial membership.
func (e *evolver) openIXPs() {
	b := e.b
	dIXP := e.spec.NumIXPs - len(e.prev.IXPs)
	if dIXP <= 0 {
		return
	}
	cities := geo.Cities()
	order := make([]int, len(cities))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return cities[order[i]].PopM > cities[order[j]].PopM })
	start := len(e.prev.IXPs)
	if start+dIXP > len(order) {
		dIXP = len(order) - start
	}
	product := func(ci, cj ASClass) float64 {
		return b.spec.Openness[ci] * b.spec.Openness[cj]
	}
	for k := 0; k < dIXP; k++ {
		city := geo.CityID(order[start+k])
		cont := cities[city].Continent
		var members []astopo.ASN
		recruit := func(classList []astopo.ASN, class ASClass) {
			maxJoin, prob := classJoin(class)
			cands := make([]astopo.ASN, 0, len(classList))
			for _, a := range classList {
				if cities[b.as(a).home].Continent == cont && e.memberCount[a] < maxJoin {
					cands = append(cands, a)
				}
			}
			b.rowSample(len(cands), prob, func(i int) {
				members = append(members, cands[i])
				e.memberCount[cands[i]]++
			})
		}
		recruit(b.transits, ClassTransit)
		recruit(b.access, ClassAccess)
		recruit(b.content, ClassContent)
		recruit(b.enterprise, ClassEnterprise)
		joinNamed := func(ps []Profile, prob float64) {
			for _, p := range ps {
				if b.rng.Float64() < prob {
					members = append(members, p.ASN)
				}
			}
		}
		joinNamed(e.spec.Clouds, 0.70)
		joinNamed(e.spec.Hypergiants, 0.50)
		joinNamed(e.spec.Tier2, 0.35)
		joinNamed(e.spec.Tier1, 0.20)
		b.meshMembers(members, product, e.addPeer)
		e.d.NewIXPs = append(e.d.NewIXPs, NewIXP{City: city, Members: members})
	}
}

// growOpenness densifies the existing exchanges' public meshes: openness
// factors grow year over year, so each co-located pair that is not yet
// peered gets the marginal acceptance probability that lifts the old
// year's pair distribution to the new year's.
func (e *evolver) growOpenness() {
	b := e.b
	marg := func(ci, cj ASClass) float64 {
		return marginalProb(
			e.prevSpec.Openness[ci]*e.prevSpec.Openness[cj],
			e.spec.Openness[ci]*e.spec.Openness[cj],
		)
	}
	for k := range e.prev.IXPs {
		b.meshMembers(e.prev.IXPs[k].Members, marg, e.addPeer)
	}
}

// growCloudProviders adds the transit relationships the clouds' growing
// ProviderCount calls for: Tier-1 slots first, then the Tier-2/large-
// transit pool, skipping networks the cloud already has any relationship
// with.
func (e *evolver) growCloudProviders() {
	b := e.b
	for i, pNew := range e.spec.Clouds {
		pOld := e.prevSpec.Clouds[i]
		added := 0
		dT1 := pNew.Tier1Provs - pOld.Tier1Provs
		for _, t := range b.rng.Perm(len(e.spec.Tier1)) {
			if added >= dT1 {
				break
			}
			if e.addProvider(e.spec.Tier1[t].ASN, pNew.ASN) {
				added++
			}
		}
		want := pNew.ProviderCount - pOld.ProviderCount
		if want <= added {
			continue
		}
		pool := append(append([]astopo.ASN(nil), b.tier2Urn...), b.anyTransit...)
		for added < want && len(pool) > 0 {
			i := b.rng.Intn(len(pool))
			cand := pool[i]
			pool = append(pool[:i], pool[i+1:]...)
			if e.addProvider(cand, pNew.ASN) {
				added++
			}
		}
	}
}

// growCloudPeering applies the clouds' footprint build-out: for every
// peering knob that grew since last year, each not-yet-peered candidate
// gets the marginal probability that lifts last year's link distribution
// to this year's. Transit candidates keep the size-rank boost (largest
// customer cones are peered first, how clouds actually build out).
func (e *evolver) growCloudPeering() {
	b := e.b
	ranked := append([]astopo.ASN(nil), b.transits[:e.oldTransits]...)
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
	oldAccess := b.access[:e.oldAccess]
	oldContent := b.content[:e.oldContent]
	for i, pNew := range e.spec.Clouds {
		pOld := e.prevSpec.Clouds[i]
		for _, t := range e.spec.Tier1 {
			if t.ASN != pNew.ASN && b.rng.Float64() < marginalProb(pOld.PeerTier1, pNew.PeerTier1) {
				e.addPeer(pNew.ASN, t.ASN)
			}
		}
		for _, t := range e.spec.Tier2 {
			if t.ASN != pNew.ASN && b.rng.Float64() < marginalProb(pOld.PeerTier2, pNew.PeerTier2) {
				e.addPeer(pNew.ASN, t.ASN)
			}
		}
		for pos, a := range ranked {
			boost := rankBoost(pos)
			q := marginalProb(pOld.PeerTransit*boost, pNew.PeerTransit*boost)
			if b.rng.Float64() < q {
				e.addPeer(pNew.ASN, a)
			}
		}
		b.rowSample(len(oldAccess), marginalProb(pOld.PeerAccess, pNew.PeerAccess), func(i int) {
			e.addPeer(pNew.ASN, oldAccess[i])
		})
		b.rowSample(len(oldContent), marginalProb(pOld.PeerContent, pNew.PeerContent), func(i int) {
			e.addPeer(pNew.ASN, oldContent[i])
		})
	}
}

// ApplyDelta applies a growth delta to its base world, producing the next
// year's world. The application is purely structural (no randomness): the
// base link list minus the removals, plus the additions, refrozen; the
// annotation table extended with the new ASes; the IXP memberships
// extended. It fails closed — a removal that does not match a base link,
// an addition that already exists, or an out-of-range IXP index is an
// error, not a silent skip — so a corrupted or mispaired delta can never
// produce a silently wrong world.
func ApplyDelta(prev *Internet, d *GrowthDelta) (*Internet, error) {
	fromYear, err := specYear(prev.Spec)
	if err != nil {
		return nil, err
	}
	if d.FromYear != fromYear {
		return nil, fmt.Errorf("topogen: delta %d->%d does not apply to a %d world", d.FromYear, d.ToYear, fromYear)
	}
	if d.ToYear != d.FromYear+1 {
		return nil, fmt.Errorf("topogen: delta %d->%d is not a single-year step", d.FromYear, d.ToYear)
	}
	spec, err := SpecForYear(d.ToYear, d.Scale)
	if err != nil {
		return nil, err
	}

	// Removals are keyed by pair so that additions can see which pairs go.
	removed := make(map[uint64]astopo.Link, len(d.RemovedLinks))
	for _, l := range d.RemovedLinks {
		removed[astopo.PairKey(l.A, l.B)] = l
	}
	if len(removed) != len(d.RemovedLinks) {
		return nil, fmt.Errorf("topogen: delta %d->%d lists a removed link twice", d.FromYear, d.ToYear)
	}
	prevLinks := prev.Graph.Links()
	links := make([]astopo.Link, 0, len(prevLinks)-len(d.RemovedLinks)+len(d.AddedLinks))
	dropped := 0
	for _, l := range prevLinks {
		if r, ok := removed[astopo.PairKey(l.A, l.B)]; ok && r == l {
			dropped++
			continue
		}
		links = append(links, l)
	}
	if dropped != len(d.RemovedLinks) {
		return nil, fmt.Errorf("topogen: delta %d->%d removes %d links but only %d matched the base world",
			d.FromYear, d.ToYear, len(d.RemovedLinks), dropped)
	}
	// An addition repeats a pair the delta already added or the base keeps.
	added := make(map[uint64]bool, len(d.AddedLinks))
	for _, l := range d.AddedLinks {
		k := astopo.PairKey(l.A, l.B)
		_, inBase := prev.Graph.HasLink(l.A, l.B)
		if _, gone := removed[k]; added[k] || inBase && !gone {
			return nil, fmt.Errorf("topogen: delta %d->%d adds link %d-%d that already exists", d.FromYear, d.ToYear, l.A, l.B)
		}
		added[k] = true
		links = append(links, l)
	}
	g := astopo.FromLinks(links)
	g.Freeze()

	// Annotations: the base world's, extended with the new ASes.
	pm := prev.Meta
	newAS := make(map[astopo.ASN]NewAS, len(d.NewASes))
	for _, na := range d.NewASes {
		newAS[na.ASN] = na
	}
	of := func(a astopo.ASN) (ASClass, geo.CityID) {
		if na, ok := newAS[a]; ok {
			return na.Class, na.Home
		}
		if i, ok := prev.Graph.Index(a); ok {
			return pm.Class[i], pm.Home[i]
		}
		return 0, 0
	}
	name := make(map[astopo.ASN]string)
	pops := make(map[astopo.ASN][]geo.CityID)
	for i, a := range prev.Graph.ASes() {
		if pm.NameOff[i] != pm.NameOff[i+1] {
			name[a] = string(pm.NameBlob[pm.NameOff[i]:pm.NameOff[i+1]])
		}
		if ps := pm.PoPArena[pm.PoPOff[i]:pm.PoPOff[i+1]]; len(ps) > 0 {
			pops[a] = ps
		}
	}

	ixps := make([]IXP, len(prev.IXPs), len(prev.IXPs)+len(d.NewIXPs))
	for i, x := range prev.IXPs {
		ms := make([]astopo.ASN, len(x.Members))
		copy(ms, x.Members)
		ixps[i] = IXP{City: x.City, Members: ms}
	}
	for _, j := range d.IXPJoins {
		if j.IXP < 0 || int(j.IXP) >= len(prev.IXPs) {
			return nil, fmt.Errorf("topogen: delta %d->%d joins IXP %d of %d", d.FromYear, d.ToYear, j.IXP, len(prev.IXPs))
		}
		ixps[j.IXP].Members = append(ixps[j.IXP].Members, j.Member)
	}
	for _, nx := range d.NewIXPs {
		ixps = append(ixps, IXP{City: nx.City, Members: append([]astopo.ASN(nil), nx.Members...)})
	}

	in := &Internet{
		Spec:        spec,
		Graph:       g,
		Tier1:       make(astopo.ASSet, len(prev.Tier1)),
		Tier2:       make(astopo.ASSet, len(prev.Tier2)),
		Clouds:      make(map[string]astopo.ASN, len(prev.Clouds)),
		Hypergiants: make(map[string]astopo.ASN, len(prev.Hypergiants)),
		IXPs:        ixps,
	}
	for a := range prev.Tier1 {
		in.Tier1.Add(a)
	}
	for a := range prev.Tier2 {
		in.Tier2.Add(a)
	}
	for n, a := range prev.Clouds {
		in.Clouds[n] = a
	}
	for n, a := range prev.Hypergiants {
		in.Hypergiants[n] = a
	}
	in.Meta = NewASMeta(g, of, name, pops)
	return in, nil
}

// GenerateYear builds the timeline world for one year: the 2015 base
// preset evolved forward one growth step at a time. Deterministic — and
// because every step routes through ApplyDelta, a world produced by
// applying a stored delta to year N is byte-identical to GenerateYear of
// year N+1.
func GenerateYear(year int, scale float64) (*Internet, error) {
	if year < TimelineFirstYear || year > TimelineLastYear {
		return nil, fmt.Errorf("topogen: year %d outside timeline range %d..%d",
			year, TimelineFirstYear, TimelineLastYear)
	}
	in, err := Generate(Internet2015(scale))
	if err != nil {
		return nil, err
	}
	for y := TimelineFirstYear + 1; y <= year; y++ {
		d, err := EvolveStep(in, y, scale)
		if err != nil {
			return nil, err
		}
		in, err = ApplyDelta(in, d)
		if err != nil {
			return nil, err
		}
	}
	return in, nil
}
