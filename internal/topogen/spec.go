// Package topogen generates seeded synthetic Internet topologies whose
// structure follows the AS-level ecosystem the paper measures: a fully
// meshed Tier-1 clique, Tier-2 ISPs, regional transit providers, access /
// content / enterprise edge ASes attached by preferential attachment,
// IXP-mediated peering meshes, and cloud providers with calibrated peering
// footprints and transit-provider counts.
//
// The generator substitutes for the CAIDA September 2015 / September 2020
// AS-relationship datasets (see DESIGN.md §2). Presets Internet2015 and
// Internet2020 are calibrated so that the paper's qualitative results —
// orderings, ratios, crossovers — reproduce at a configurable scale.
package topogen

import (
	"flatnet/internal/astopo"
	"flatnet/internal/geo"
)

// ASClass categorizes an AS's role in the generated topology.
type ASClass uint8

const (
	// ClassTier1 is a member of the fully meshed provider-free clique.
	ClassTier1 ASClass = iota
	// ClassTier2 is a large global or regional transit ISP below the
	// clique (the paper's Tier-2 exclusion set).
	ClassTier2
	// ClassTransit is a regional mid-tier transit provider.
	ClassTransit
	// ClassAccess is an eyeball ISP serving end users.
	ClassAccess
	// ClassContent is a content or hosting network.
	ClassContent
	// ClassEnterprise is a stub enterprise network.
	ClassEnterprise
	// ClassCloud is one of the major cloud providers under study.
	ClassCloud
)

func (c ASClass) String() string {
	switch c {
	case ClassTier1:
		return "tier1"
	case ClassTier2:
		return "tier2"
	case ClassTransit:
		return "transit"
	case ClassAccess:
		return "access"
	case ClassContent:
		return "content"
	case ClassEnterprise:
		return "enterprise"
	case ClassCloud:
		return "cloud"
	}
	return "unknown"
}

// Profile describes a named network (Tier-1, Tier-2, cloud, or hypergiant)
// with its connectivity and footprint knobs.
type Profile struct {
	Name  string
	ASN   astopo.ASN
	Class ASClass

	// ProviderCount is the total number of transit providers; Tier1Provs
	// of them are drawn from the Tier-1 clique, the rest from Tier-2s
	// and large regional transits. PreferredProviders are taken first
	// (e.g. Google's documented Tata, GTT, and Durand do Brasil transit
	// relationships, §6.2).
	ProviderCount      int
	Tier1Provs         int
	PreferredProviders []astopo.ASN

	// PeerTier1 / PeerTier2 are the fractions of the Tier-1 / Tier-2
	// sets this network peers with (excluding its providers).
	PeerTier1, PeerTier2 float64

	// PeerTransit / PeerAccess / PeerContent are the probabilities of a
	// settlement-free peering with each regional transit, access, or
	// content AS. Transit peering probability is additionally scaled by
	// the transit's size rank so that big regional transits are peered
	// first (how clouds actually build out).
	PeerTransit, PeerAccess, PeerContent float64

	// PoPCount is the number of metro PoPs deployed (Table 3); Global
	// spreads them over all continents instead of concentrating on
	// North America / Europe / Asia.
	PoPCount int
	Global   bool
}

// Spec parameterizes a generated Internet.
type Spec struct {
	// Name labels the dataset (e.g. "2020").
	Name string
	// Seed drives all randomness; equal specs generate equal graphs.
	Seed int64

	// NumASes is the approximate total AS count. The named profiles,
	// transits, and edge ASes are carved out of it.
	NumASes int
	// NumTransit is the number of regional mid-tier transit providers.
	NumTransit int
	// FracAccess and FracContent split the remaining edge ASes; the
	// leftover fraction becomes enterprises.
	FracAccess, FracContent float64

	// NumIXPs is the number of Internet exchange points, placed in the
	// most populous gazetteer cities.
	NumIXPs int

	// Openness is the per-class probability factor that an IXP member
	// peers with a co-located member; the pairwise probability is the
	// product of the two members' factors.
	Openness map[ASClass]float64

	// Tier1, Tier2, Clouds, and Hypergiants are the named networks.
	Tier1, Tier2, Clouds, Hypergiants []Profile
}

// Internet is a generated topology with its ground-truth annotations.
type Internet struct {
	Spec  Spec
	Graph *astopo.Graph

	// Tier1 and Tier2 are the exclusion sets for the reachability
	// metrics, as defined by construction.
	Tier1, Tier2 astopo.ASSet

	// Clouds holds the cloud-provider ASNs keyed by name; Hypergiants
	// likewise (e.g. Facebook).
	Clouds, Hypergiants map[string]astopo.ASN

	// Meta holds the dense per-AS annotations (class, name, home city,
	// PoPs), indexed by the graph's dense index. Access it through the
	// ClassOf/NameOf/HomeCityOf/PoPsOf accessors (or the *At variants when
	// a dense index is already at hand).
	Meta *ASMeta

	// IXPs lists the exchanges with their member ASes.
	IXPs []IXP
}

// ASMeta is the dense per-AS annotation table. All slices are indexed by
// (or offset by) the owning graph's dense index and may borrow read-only
// memory from an mmap'd snapshot — never mutate them after construction.
type ASMeta struct {
	// Class holds every AS's role.
	Class []ASClass
	// Home holds every AS's home city.
	Home []geo.CityID
	// PoPOff/PoPArena are the CSR form of the per-AS PoP city lists:
	// AS i's PoPs are PoPArena[PoPOff[i]:PoPOff[i+1]]. len(PoPOff) == n+1.
	PoPOff   []int32
	PoPArena []geo.CityID
	// NameOff/NameBlob hold the display names of named networks: AS i is
	// named NameBlob[NameOff[i]:NameOff[i+1]] (empty for unnamed ASes).
	NameOff  []int32
	NameBlob []byte
}

// NewASMeta builds the dense annotation table for a frozen graph: of
// returns an AS's class and home city, and name and pops hold the display
// names and PoP lists of the named networks.
func NewASMeta(g *astopo.Graph, of func(astopo.ASN) (ASClass, geo.CityID),
	name map[astopo.ASN]string, pops map[astopo.ASN][]geo.CityID) *ASMeta {
	nodes := g.ASes()
	n := len(nodes)
	m := &ASMeta{
		Class:   make([]ASClass, n),
		Home:    make([]geo.CityID, n),
		PoPOff:  make([]int32, n+1),
		NameOff: make([]int32, n+1),
	}
	for i, a := range nodes {
		m.Class[i], m.Home[i] = of(a)
		m.PoPArena = append(m.PoPArena, pops[a]...)
		m.PoPOff[i+1] = int32(len(m.PoPArena))
		m.NameBlob = append(m.NameBlob, name[a]...)
		m.NameOff[i+1] = int32(len(m.NameBlob))
	}
	return m
}

// IXP is one exchange point.
type IXP struct {
	City    geo.CityID
	Members []astopo.ASN
}

// CloudASN returns the ASN of the named cloud, or false.
func (in *Internet) CloudASN(name string) (astopo.ASN, bool) {
	a, ok := in.Clouds[name]
	return a, ok
}

// ClassAt returns the class of the AS at a dense index.
func (in *Internet) ClassAt(i int) ASClass { return in.Meta.Class[i] }

// ClassOf returns the class of an AS (the zero class for unknown ASNs).
func (in *Internet) ClassOf(a astopo.ASN) ASClass {
	if i, ok := in.Graph.Index(a); ok {
		return in.Meta.Class[i]
	}
	return 0
}

// HomeCityAt returns the home city of the AS at a dense index.
func (in *Internet) HomeCityAt(i int) geo.CityID { return in.Meta.Home[i] }

// HomeCityOf returns the home city of an AS, or false for unknown ASNs.
func (in *Internet) HomeCityOf(a astopo.ASN) (geo.CityID, bool) {
	i, ok := in.Graph.Index(a)
	if !ok {
		return 0, false
	}
	return in.Meta.Home[i], true
}

// PoPsAt returns the PoP cities of the AS at a dense index. The returned
// slice is shared (possibly read-only); callers must not modify it.
func (in *Internet) PoPsAt(i int) []geo.CityID {
	return in.Meta.PoPArena[in.Meta.PoPOff[i]:in.Meta.PoPOff[i+1]]
}

// PoPsOf returns the PoP cities of an AS (nil for unknown or unnamed ASes).
// The returned slice is shared (possibly read-only); callers must not
// modify it.
func (in *Internet) PoPsOf(a astopo.ASN) []geo.CityID {
	if i, ok := in.Graph.Index(a); ok {
		return in.PoPsAt(i)
	}
	return nil
}

// NameAt returns the display name of the AS at a dense index.
func (in *Internet) NameAt(i int) string {
	m := in.Meta
	if m.NameOff[i] != m.NameOff[i+1] {
		return string(m.NameBlob[m.NameOff[i]:m.NameOff[i+1]])
	}
	return astopoName(in.Graph.ASNAt(i))
}

// NameOf returns the display name of an AS ("AS<n>" for unnamed ones).
func (in *Internet) NameOf(a astopo.ASN) string {
	if i, ok := in.Graph.Index(a); ok {
		m := in.Meta
		if m.NameOff[i] != m.NameOff[i+1] {
			return string(m.NameBlob[m.NameOff[i]:m.NameOff[i+1]])
		}
	}
	return astopoName(a)
}
