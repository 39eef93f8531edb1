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

// evolver holds one growth step's working state.
type evolver struct {
	b        *builder // rng, city machinery, per-AS rows, class lists, urns
	prev     *Internet
	prevSpec Spec
	spec     Spec
	d        *GrowthDelta

	pending map[uint64]bool // links added this step
	removed map[uint64]bool // links churned away this step

	next astopo.ASN // the first new AS's number
	// class boundaries: indices below these counts in the builder's class
	// lists are ASes that already existed in the base world.
	oldTransits, oldAccess, oldContent, oldEnterprise int

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
	e.b = &builder{spec: spec, rng: rand.New(rand.NewSource(SeedForYear(year))), link: e.addLink}
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
// dense (sorted-ASN) order, customer counts from the CSR rows, exchange
// counts from the IXP lists, and the preferential-attachment urns with
// multiplicity 1 + customer count (an AS that won customers is
// proportionally likelier to win more).
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

	m := prev.Meta
	for i, a := range g.ASes() {
		custs := len(g.CustomersOf(i))
		r := b.as(a)
		r.class, r.home, r.custs = m.Class[i], m.Home[i], int32(custs)
		if m.NameOff[i] != m.NameOff[i+1] {
			b.name[a] = string(m.NameBlob[m.NameOff[i]:m.NameOff[i+1]])
		}
		if pops := m.PoPArena[m.PoPOff[i]:m.PoPOff[i+1]]; len(pops) > 0 {
			b.pops[a] = pops
		}
		switch m.Class[i] {
		case ClassTransit:
			b.transits = append(b.transits, a)
			for k := 0; k < 1+custs; k++ {
				b.urnTransit(a)
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
		for k := int32(0); k < 1+b.as(p.ASN).custs; k++ {
			b.tier2Urn = append(b.tier2Urn, p.ASN)
		}
	}
	for _, p := range e.spec.Tier1 {
		for k := int32(0); k < 1+b.as(p.ASN).custs; k++ {
			b.tier1Urn = append(b.tier1Urn, p.ASN)
		}
	}
	e.next = next
	e.oldTransits, e.oldAccess, e.oldContent, e.oldEnterprise = len(b.transits), len(b.access), len(b.content), len(b.enterprise)

	e.ixpClasses = make([][ClassCloud + 1][]astopo.ASN, len(prev.IXPs))
	for k := range prev.IXPs {
		for _, a := range prev.IXPs[k].Members {
			if a >= next {
				return fmt.Errorf("topogen: IXP %d lists AS%d, which the base world does not number", k, a)
			}
			r := b.as(a)
			r.ixps++
			e.ixpClasses[k][r.class] = append(e.ixpClasses[k][r.class], a)
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

// addLink is the step's builder.link: it records a link between x and y
// as added unless x == y or the two are already linked.
func (e *evolver) addLink(x, y astopo.ASN, rel astopo.Rel) bool {
	if x == y || e.linked(x, y) {
		return false
	}
	e.pending[astopo.PairKey(x, y)] = true
	e.d.AddedLinks = append(e.d.AddedLinks, astopo.Link{A: x, B: y, Rel: rel})
	return true
}

func (e *evolver) addPeer(x, y astopo.ASN) { e.addLink(x, y, astopo.P2P) }

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
// split into transits and edge classes by the new year's fractions — with
// the generator's createASes, and attaches them to the hierarchy with its
// provider ladders.
func (e *evolver) growASes() {
	b := e.b
	dn := max(0, e.spec.NumASes-e.prev.Graph.NumASes())
	dTransit := min(max(0, e.spec.NumTransit-e.prevSpec.NumTransit), dn)
	rest := dn - dTransit
	nAccess := int(float64(rest) * e.spec.FracAccess)
	nContent := int(float64(rest) * e.spec.FracContent)
	b.createASes(e.next, dTransit, nAccess, nContent, rest-nAccess-nContent)

	newTransits := b.transits[e.oldTransits:]
	newAccess, newContent, newEnterprise := b.access[e.oldAccess:], b.content[e.oldContent:], b.enterprise[e.oldEnterprise:]
	for _, list := range [][]astopo.ASN{newTransits, newAccess, newContent, newEnterprise} {
		for _, a := range list {
			r := b.as(a)
			e.d.NewASes = append(e.d.NewASes, NewAS{ASN: a, Class: r.class, Home: r.home})
		}
	}
	b.wireTransitProviders(newTransits)
	b.wireEdgeProviders(newAccess, newContent, newEnterprise)
}

// wireNamedToNewASes gives every named network its calibrated peering
// chance with the ASes born this year (in a fresh build those edges would
// have faced the full Bernoulli). New transits enter at the bottom of the
// size ranking, so they get the bottom-quartile rank boost, rankBoost(1).
func (e *evolver) wireNamedToNewASes() {
	b := e.b
	newTransits := b.transits[e.oldTransits:]
	newAccess := b.access[e.oldAccess:]
	newContent := b.content[e.oldContent:]
	groups := [][]Profile{e.spec.Tier1, e.spec.Tier2, e.spec.Clouds, e.spec.Hypergiants}
	for _, group := range groups {
		for _, p := range group {
			b.rowSample(len(newTransits), p.PeerTransit*rankBoost(1), func(i int) {
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
	ca := b.as(a).class
	for ci := range buckets {
		B := buckets[ci]
		b.rowSample(len(B), b.openness(ca, ASClass(ci)), func(j int) {
			e.addPeer(a, B[j])
		})
	}
}

// joinExistingIXPs signs the year's new ASes up at home-continent
// exchanges that already exist, by their class's classJoin (a new AS
// tries none abroad), and draws their public peerings against the members
// already there.
func (e *evolver) joinExistingIXPs() {
	b := e.b
	cities := geo.Cities()
	var ixpByCont [geo.NumContinents][]int
	for k := range e.prev.IXPs {
		c := cities[e.prev.IXPs[k].City].Continent
		ixpByCont[c] = append(ixpByCont[c], k)
	}
	for _, na := range e.d.NewASes {
		maxJoin, prob, _ := classJoin(na.Class)
		b.joinHome(ixpByCont[cities[na.Home].Continent], maxJoin, prob, func(k int) {
			e.meshAgainst(na.ASN, &e.ixpClasses[k])
			e.ixpClasses[k][na.Class] = append(e.ixpClasses[k][na.Class], na.ASN)
			b.as(na.ASN).ixps++
			e.d.IXPJoins = append(e.d.IXPJoins, IXPJoin{IXP: int32(k), Member: na.ASN})
		})
	}
}

// openIXPs places the year's new exchanges in the next cities of
// ixpCities, recruits members (synthetic classes from the exchange's home
// continent, capped by their classJoin budgets; named networks at their
// groups' shares), and draws the full public mesh among the initial
// membership.
func (e *evolver) openIXPs() {
	b := e.b
	cities := geo.Cities()
	order := ixpCities()
	end := min(e.spec.NumIXPs, len(order))
	for _, city := range order[min(len(e.prev.IXPs), end):end] {
		cont := cities[city].Continent
		var members []astopo.ASN
		for _, list := range [][]astopo.ASN{b.transits, b.access, b.content, b.enterprise} {
			if len(list) == 0 {
				continue
			}
			maxJoin, prob, _ := classJoin(b.as(list[0]).class) // each list holds one class
			cands := make([]astopo.ASN, 0, len(list))
			for _, a := range list {
				if r := b.as(a); cities[r.home].Continent == cont && int(r.ixps) < maxJoin {
					cands = append(cands, a)
				}
			}
			b.rowSample(len(cands), prob, func(i int) {
				members = append(members, cands[i])
				b.as(cands[i]).ixps++
			})
		}
		for _, g := range namedShares(e.spec) {
			for _, p := range g.group {
				if b.rng.Float64() < g.share {
					members = append(members, p.ASN)
				}
			}
		}
		b.meshMembers(members, b.openness, e.addPeer)
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
// Tier1Provs and ProviderCount call for, drawn like a new profile's
// providers; a candidate the cloud is already related to does not count.
func (e *evolver) growCloudProviders() {
	b := e.b
	for i, p := range e.spec.Clouds {
		prev, added := e.prevSpec.Clouds[i], 0
		b.drawProviders(
			func() bool { return added < p.Tier1Provs-prev.Tier1Provs },
			func() bool { return added < p.ProviderCount-prev.ProviderCount },
			func(a astopo.ASN) {
				if b.addProvider(a, p.ASN) {
					added++
				}
			})
	}
}

// growCloudPeering applies the clouds' footprint build-out: every cloud
// grows from last year's profile to this year's over the ASes that
// already existed, each not-yet-peered candidate at the marginal
// probability that lifts last year's link distribution to this year's.
// Transit candidates keep the size-rank boost (largest customer cones are
// peered first, how clouds actually build out).
func (e *evolver) growCloudPeering() {
	b := e.b
	ranked := b.rankTransits(b.transits[:e.oldTransits])
	for i, p := range e.spec.Clouds {
		b.peerProfile(e.prevSpec.Clouds[i], p, ranked, b.access[:e.oldAccess], b.content[:e.oldContent], e.addPeer)
	}
}

// ApplyDelta applies a growth delta to its base world, producing the next
// year's world. The application is purely structural (no randomness): the
// base link list minus the removals, plus the additions, refrozen; the
// annotation table extended with the new ASes; the IXP memberships
// extended. It fails closed, so a corrupted or mispaired delta can never
// produce a silently wrong world, nor one the next growth step cannot
// read. It refuses a delta that does not step its base world's year by
// one, and one that lists
//   - a removal that matches no base link, or the same removal twice;
//   - an addition that links an AS to itself, has a relationship other
//     than p2p or p2c, links a pair the base keeps or the delta already
//     added, or links an AS that neither the base world nor the delta's
//     new ASes have;
//   - a new AS whose class is not transit, access, content or enterprise,
//     whose home is not a gazetteer city, or whose ASN the delta lists
//     twice or the base world already numbers;
//   - a join of an exchange the base world does not have, or a new
//     exchange outside the gazetteer's cities.
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
	nCities := len(geo.Cities())
	newAS := make(map[astopo.ASN]NewAS, len(d.NewASes))
	for _, na := range d.NewASes {
		switch na.Class {
		case ClassTransit, ClassAccess, ClassContent, ClassEnterprise:
		default:
			return nil, fmt.Errorf("topogen: delta %d->%d creates AS%d of class %v; a growth step creates transit, access, content or enterprise ASes",
				d.FromYear, d.ToYear, na.ASN, na.Class)
		}
		if na.Home < 0 || int(na.Home) >= nCities {
			return nil, fmt.Errorf("topogen: delta %d->%d homes AS%d in city %d of %d", d.FromYear, d.ToYear, na.ASN, na.Home, nCities)
		}
		if _, dup := newAS[na.ASN]; dup {
			return nil, fmt.Errorf("topogen: delta %d->%d creates AS%d twice", d.FromYear, d.ToYear, na.ASN)
		}
		if _, ok := prev.Graph.Index(na.ASN); ok {
			return nil, fmt.Errorf("topogen: delta %d->%d creates AS%d, which the base world already has", d.FromYear, d.ToYear, na.ASN)
		}
		newAS[na.ASN] = na
	}
	for _, nx := range d.NewIXPs {
		if nx.City < 0 || int(nx.City) >= nCities {
			return nil, fmt.Errorf("topogen: delta %d->%d opens an exchange in city %d of %d", d.FromYear, d.ToYear, nx.City, nCities)
		}
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
		if l.A == l.B || l.Rel != astopo.P2P && l.Rel != astopo.P2C {
			return nil, fmt.Errorf("topogen: delta %d->%d adds %v link %d-%d; an added link joins two ASes as p2p or p2c",
				d.FromYear, d.ToYear, l.Rel, l.A, l.B)
		}
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
	stray, strays := astopo.ASN(0), 0 // linked ASes neither world numbers
	of := func(a astopo.ASN) (ASClass, geo.CityID) {
		if na, ok := newAS[a]; ok {
			return na.Class, na.Home
		}
		if i, ok := prev.Graph.Index(a); ok {
			return pm.Class[i], pm.Home[i]
		}
		stray, strays = a, strays+1
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
	if strays > 0 {
		return nil, fmt.Errorf("topogen: delta %d->%d links %d ASes, AS%d among them, that neither the base world nor its new ASes have",
			d.FromYear, d.ToYear, strays, stray)
	}
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
