// Package population assigns the two per-AS annotations the paper draws
// from external datasets (§4.3): an AS type (content, transit, access, or
// enterprise, following CAIDA's as2type plus the APNIC-user refinement) and
// an estimated Internet user population per AS (APNIC's ad-based estimates).
//
// The synthetic substitute follows the real datasets' shape: only access
// networks serve end users, and per-AS user counts are heavy-tailed (a
// Zipf-like distribution), so a small number of eyeball ASes hold most of
// the population. User mass is additionally proportional to the AS's home
// metro population so geography and population agree.
package population

import (
	"math"
	"math/rand"

	"flatnet/internal/astopo"
	"flatnet/internal/geo"
	"flatnet/internal/topogen"
)

// ASType is the paper's four-way classification (§4.3).
type ASType uint8

const (
	// TypeContent marks content/hosting networks.
	TypeContent ASType = iota
	// TypeTransit marks transit networks without measurable users.
	TypeTransit
	// TypeAccess marks transit/access networks with APNIC-visible users.
	TypeAccess
	// TypeEnterprise marks enterprise stubs.
	TypeEnterprise
)

func (t ASType) String() string {
	switch t {
	case TypeContent:
		return "content"
	case TypeTransit:
		return "transit"
	case TypeAccess:
		return "access"
	case TypeEnterprise:
		return "enterprise"
	}
	return "unknown"
}

// Model holds the per-AS annotations in dense columns parallel to a sorted
// ASN list (the graph's node order). Lookups are binary searches; no
// pointer-shaped state exists, so a model can be reconstructed in O(1) from
// externally owned (possibly read-only, mmap'd) memory via FromDense.
type Model struct {
	asns  []astopo.ASN // sorted ascending
	types []ASType
	users []float64 // 0 for ASes without user mass
	total float64
}

// Build derives a Model from a generated Internet: the paper's rule is
// "CAIDA type transit/access + APNIC users present => access" — here the
// generator's access class gets users, clouds and hypergiant content count
// as content, Tier-1/Tier-2/transit as transit, enterprises as enterprise.
// The Zipf exponent s (≈1.1 matches APNIC's skew) and the rng seed make the
// assignment deterministic per Internet.
func Build(in *topogen.Internet, zipfS float64) *Model {
	nodes := in.Graph.ASes()
	m := &Model{
		asns:  nodes, // shared with the graph; never mutated
		types: make([]ASType, len(nodes)),
		users: make([]float64, len(nodes)),
	}
	rng := rand.New(rand.NewSource(in.Spec.Seed ^ 0x9e3779b9))
	var accessIdx []int
	for i := range nodes {
		switch in.ClassAt(i) {
		case topogen.ClassAccess:
			m.types[i] = TypeAccess
			accessIdx = append(accessIdx, i)
		case topogen.ClassContent, topogen.ClassCloud:
			m.types[i] = TypeContent
		case topogen.ClassEnterprise:
			m.types[i] = TypeEnterprise
		default:
			m.types[i] = TypeTransit
		}
	}
	// Zipf ranks shuffled across access ASes, weighted by home-metro
	// population so that a big-metro AS tends to hold more users.
	perm := rng.Perm(len(accessIdx))
	cities := geo.Cities()
	for rank, pi := range perm {
		i := accessIdx[pi]
		base := 1.0 / math.Pow(float64(rank+1), zipfS)
		metro := 0.5 + cities[in.HomeCityAt(i)].PopM/10
		u := base * metro
		m.users[i] = u
		m.total += u
	}
	return m
}

// Entry is one AS's annotations in a Model snapshot. Users is zero for
// ASes without user mass.
type Entry struct {
	AS    astopo.ASN
	Type  ASType
	Users float64
}

// Snapshot returns every AS's annotations sorted by ASN, plus the exact
// user total. The total is returned explicitly rather than recomputed:
// float summation order matters in the last ulp, and Share values must
// survive a snapshot round trip bit-for-bit.
func (m *Model) Snapshot() ([]Entry, float64) {
	entries := make([]Entry, len(m.asns))
	for i, a := range m.asns {
		entries[i] = Entry{AS: a, Type: m.types[i], Users: m.users[i]}
	}
	return entries, m.total
}

// Dense returns the model's columns — ASNs sorted ascending with parallel
// types and users — and the exact user total. The slices are shared (and
// possibly read-only); callers must not modify them.
func (m *Model) Dense() (asns []astopo.ASN, types []ASType, users []float64, total float64) {
	return m.asns, m.types, m.users, m.total
}

// FromDense wires a model over externally built columns in O(1), without
// copying. The columns may live in read-only memory (an mmap'd snapshot);
// asns must be sorted ascending and all three slices must have equal
// length.
func FromDense(asns []astopo.ASN, types []ASType, users []float64, total float64) *Model {
	return &Model{asns: asns, types: types, users: users, total: total}
}

func (m *Model) index(a astopo.ASN) (int, bool) {
	lo, hi := 0, len(m.asns)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m.asns[mid] < a {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(m.asns) && m.asns[lo] == a
}

// Type returns the AS's type; unknown ASes are enterprises.
func (m *Model) Type(a astopo.ASN) ASType {
	if i, ok := m.index(a); ok {
		return m.types[i]
	}
	return TypeEnterprise
}

// Users returns the AS's user mass (arbitrary units; use Share for
// fractions).
func (m *Model) Users(a astopo.ASN) float64 {
	if i, ok := m.index(a); ok {
		return m.users[i]
	}
	return 0
}

// Share returns the AS's fraction of all Internet users.
func (m *Model) Share(a astopo.ASN) float64 {
	if m.total == 0 {
		return 0
	}
	return m.Users(a) / m.total
}

// IsEyeball reports whether the AS hosts end users.
func (m *Model) IsEyeball(a astopo.ASN) bool { return m.Users(a) > 0 }

// WeightsDense returns per-AS user weights indexed by the graph's dense
// index, normalized to sum to 1 — the form a bgpsim.LeakJob's Weights
// takes.
func (m *Model) WeightsDense(g *astopo.Graph) []float64 {
	g.Freeze()
	w := make([]float64, g.NumASes())
	if m.total == 0 {
		return w
	}
	for i, u := range m.users {
		if u == 0 {
			continue
		}
		if gi, ok := g.Index(m.asns[i]); ok {
			w[gi] = u / m.total
		}
	}
	return w
}

// CountByType tallies the types at the given positions of the model's
// columns. A model built for a graph (Build, or a snapshot's) holds its
// columns in the graph's dense order, so these are the graph's dense
// indexes.
func (m *Model) CountByType(idx []int32) map[ASType]int {
	out := make(map[ASType]int, 4)
	for _, i := range idx {
		out[m.types[i]]++
	}
	return out
}
