package bgpsim

import (
	"slices"

	"flatnet/internal/astopo"
)

// ClassIndex buckets the ASes of a frozen graph into origin equivalence
// classes: two ASes fall in the same class exactly when they have the same
// sorted provider, customer, and peer neighbor sets (as ASNs), the same
// tier membership, and the same per-origin annotation. Members of a class
// are never adjacent (an AS sharing its own neighbor set would need a self
// link), so swapping two members is a graph automorphism that fixes every
// other AS — under valley-free propagation with tier-uniform base masks
// and per-origin provider masks, every member of a class has identical
// reachability counts for every exclusion kind.
//
// No engine reads the index: in the flat Internet few ASes share an exact
// neighbor set, so CollapseRatio stays close to 1 and a sweep gains less
// from propagating one member per class than building the index costs. It
// survives as a topology statistic.
//
// A ClassIndex is immutable once built and safe for concurrent use.
type ClassIndex struct {
	n       int
	classOf []int32 // dense AS index -> class id
	reps    []int32 // class id -> dense index of the representative (smallest member)
}

const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
)

// fnvMix folds one 64-bit value into an FNV-1a hash, byte by byte.
func fnvMix(h, v uint64) uint64 {
	for k := 0; k < 8; k++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// classSig is the part of an AS's class signature besides its neighbor
// ASNs.
type classSig struct {
	tier       uint8 // 0 plain, 1 Tier-1, 2 Tier-2
	annot      uint64
	pLen, cLen int32 // provider and customer run lengths of the segment
}

// NewClassIndex builds the equivalence classes for g under the given tier
// sets. annot, when non-nil, is a per-dense-index annotation folded into
// the signature (to keep specially-treated origins out of shared classes);
// nil means no annotations. The graph is frozen by the call.
func NewClassIndex(g *astopo.Graph, tier1, tier2 astopo.ASSet, annot []uint64) *ClassIndex {
	g.Freeze()
	n := g.NumASes()
	nodes := g.ASes()

	// Each AS's segment of arena holds its sorted provider ASNs, then
	// sorted customer ASNs, then sorted peer ASNs; off delimits segments.
	sigs := make([]classSig, n)
	off := make([]int32, n+1)
	total := 0
	for i := 0; i < n; i++ {
		total += len(g.ProvidersOf(i)) + len(g.CustomersOf(i)) + len(g.PeersOf(i))
	}
	arena := make([]astopo.ASN, 0, total)
	run := func(nbrs []int32) int32 {
		start := len(arena)
		for _, v := range nbrs {
			arena = append(arena, nodes[v])
		}
		slices.Sort(arena[start:])
		return int32(len(arena) - start)
	}
	for i := 0; i < n; i++ {
		sg := &sigs[i]
		sg.pLen = run(g.ProvidersOf(i))
		sg.cLen = run(g.CustomersOf(i))
		run(g.PeersOf(i))
		off[i+1] = int32(len(arena))
		if tier1.Has(nodes[i]) {
			sg.tier = 1
		} else if tier2.Has(nodes[i]) {
			sg.tier = 2
		}
		if annot != nil {
			sg.annot = annot[i]
		}
	}
	seg := func(i int32) []astopo.ASN { return arena[off[i]:off[i+1]] }

	// Class ids are assigned by first appearance in dense-index order, so
	// the representative of each class is its smallest member. Hash buckets
	// narrow the candidates; membership is decided by exact comparison, so
	// a hash collision can never merge distinct classes.
	ci := &ClassIndex{n: n, classOf: make([]int32, n)}
	buckets := make(map[uint64][]int32, n)
	for i := int32(0); i < int32(n); i++ {
		sg := sigs[i]
		h := fnvMix(fnvMix(fnvMix(fnvMix(fnvOffset64, uint64(sg.tier)), sg.annot), uint64(sg.pLen)), uint64(sg.cLen))
		for _, a := range seg(i) {
			h = fnvMix(h, uint64(a))
		}
		c := int32(-1)
		for _, cand := range buckets[h] {
			if r := ci.reps[cand]; sigs[r] == sg && slices.Equal(seg(r), seg(i)) {
				c = cand
				break
			}
		}
		if c < 0 {
			c = int32(len(ci.reps))
			ci.reps = append(ci.reps, i)
			buckets[h] = append(buckets[h], c)
		}
		ci.classOf[i] = c
	}
	return ci
}

// NumASes returns the number of ASes the index covers.
func (ci *ClassIndex) NumASes() int { return ci.n }

// CollapseRatio returns ASes per class — how many origins share one
// class's reachability counts on average.
func (ci *ClassIndex) CollapseRatio() float64 {
	if len(ci.reps) == 0 {
		return 1
	}
	return float64(ci.n) / float64(len(ci.reps))
}
