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
// and per-origin provider masks, every member of a class has *identical*
// reachability counts for every exclusion kind. All-AS sweeps therefore
// need to propagate only one representative per class and copy the count
// to the other members (the engine's own-origin self-bit subtraction is
// per lane, so the copy needs no correction).
//
// Fingerprints are computed over neighbor ASNs, not dense indexes, so an
// AS whose neighborhood is untouched by a topology delta keeps its exact
// signature — Evolve exploits this to carry signatures across an
// EvolveDelta instead of re-sorting every adjacency row.
//
// A ClassIndex is immutable once built and safe for concurrent use.
type ClassIndex struct {
	n     int
	nodes []astopo.ASN // sorted ASNs, shared with the graph

	classOf []int32 // dense AS index -> class id
	reps    []int32 // class id -> dense index of the representative (smallest member)
	size    []int32 // class id -> member count

	// Per-AS signature state, retained so Evolve can copy untouched
	// segments verbatim. arena holds each AS's sorted provider ASNs,
	// then sorted customer ASNs, then sorted peer ASNs; off/pLen/cLen
	// delimit the three runs.
	sig        []uint64     // FNV-1a fingerprint hash per AS
	tier       []uint8      // 0 plain, 1 Tier-1, 2 Tier-2
	annot      []uint64     // caller-supplied per-origin annotation (nil input = all zero)
	off        []int32      // arena offsets, len n+1
	pLen, cLen []int32      // provider/customer run lengths within each segment
	arena      []astopo.ASN // sorted neighbor ASNs, per-AS segments concatenated

	// tier sets, held only while signatures are being computed.
	t1, t2 astopo.ASSet
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

// NewClassIndex builds the equivalence classes for g under the given tier
// sets. annot, when non-nil, is a per-dense-index annotation folded into
// the fingerprint (callers use it to keep specially-treated origins out of
// shared classes); nil means no annotations. The graph is frozen by the
// call.
func NewClassIndex(g *astopo.Graph, tier1, tier2 astopo.ASSet, annot []uint64) *ClassIndex {
	g.Freeze()
	n := g.NumASes()
	ci := &ClassIndex{
		n:       n,
		nodes:   g.ASes(),
		classOf: make([]int32, n),
		sig:     make([]uint64, n),
		tier:    make([]uint8, n),
		annot:   make([]uint64, n),
		off:     make([]int32, n+1),
		pLen:    make([]int32, n),
		cLen:    make([]int32, n),
		t1:      tier1,
		t2:      tier2,
	}
	if annot != nil {
		copy(ci.annot, annot)
	}
	total := 0
	for i := 0; i < n; i++ {
		total += len(g.ProvidersOf(i)) + len(g.CustomersOf(i)) + len(g.PeersOf(i))
	}
	ci.arena = make([]astopo.ASN, 0, total)
	for i := 0; i < n; i++ {
		ci.computeSig(g, i)
	}
	ci.group()
	return ci
}

// computeSig fills AS i's arena segment (sorted neighbor ASNs), tier byte,
// and fingerprint hash, appending the segment at the arena's current end.
func (ci *ClassIndex) computeSig(g *astopo.Graph, i int) {
	start := len(ci.arena)
	ci.off[i] = int32(start)
	for _, p := range g.ProvidersOf(i) {
		ci.arena = append(ci.arena, ci.nodes[p])
	}
	slices.Sort(ci.arena[start:])
	ci.pLen[i] = int32(len(ci.arena) - start)
	mid := len(ci.arena)
	for _, c := range g.CustomersOf(i) {
		ci.arena = append(ci.arena, ci.nodes[c])
	}
	slices.Sort(ci.arena[mid:])
	ci.cLen[i] = int32(len(ci.arena) - mid)
	mid = len(ci.arena)
	for _, pe := range g.PeersOf(i) {
		ci.arena = append(ci.arena, ci.nodes[pe])
	}
	slices.Sort(ci.arena[mid:])
	ci.off[i+1] = int32(len(ci.arena))

	a := ci.nodes[i]
	if _, ok := ci.t1[a]; ok {
		ci.tier[i] = 1
	} else if _, ok := ci.t2[a]; ok {
		ci.tier[i] = 2
	} else {
		ci.tier[i] = 0
	}
	ci.sig[i] = ci.hashSeg(i)
}

// hashSeg fingerprints AS i from its stored segment.
func (ci *ClassIndex) hashSeg(i int) uint64 {
	h := uint64(fnvOffset64)
	h = fnvMix(h, uint64(ci.tier[i]))
	h = fnvMix(h, ci.annot[i])
	h = fnvMix(h, uint64(ci.pLen[i]))
	h = fnvMix(h, uint64(ci.cLen[i]))
	seg := ci.arena[ci.off[i]:ci.off[i+1]]
	h = fnvMix(h, uint64(len(seg)))
	for _, a := range seg {
		h = fnvMix(h, uint64(a))
	}
	return h
}

// sameSig reports whether ASes i and j have identical propagation
// signatures (exact comparison, not just equal hashes).
func (ci *ClassIndex) sameSig(i, j int32) bool {
	if ci.tier[i] != ci.tier[j] || ci.annot[i] != ci.annot[j] ||
		ci.pLen[i] != ci.pLen[j] || ci.cLen[i] != ci.cLen[j] {
		return false
	}
	si, sj := ci.arena[ci.off[i]:ci.off[i+1]], ci.arena[ci.off[j]:ci.off[j+1]]
	if len(si) != len(sj) {
		return false
	}
	for k := range si {
		if si[k] != sj[k] {
			return false
		}
	}
	return true
}

// group assigns class ids by first appearance in dense-index order: the
// representative of each class is its smallest member. Hash buckets narrow
// the candidates; membership is decided by exact segment comparison, so
// hash collisions can never silently merge distinct classes.
func (ci *ClassIndex) group() {
	buckets := make(map[uint64][]int32, ci.n)
	for i := 0; i < ci.n; i++ {
		h := ci.sig[i]
		assigned := false
		for _, c := range buckets[h] {
			if ci.sameSig(int32(i), ci.reps[c]) {
				ci.classOf[i] = c
				ci.size[c]++
				assigned = true
				break
			}
		}
		if !assigned {
			c := int32(len(ci.reps))
			ci.reps = append(ci.reps, int32(i))
			ci.size = append(ci.size, 1)
			ci.classOf[i] = c
			buckets[h] = append(buckets[h], c)
		}
	}
	ci.t1, ci.t2 = nil, nil // never pin the caller's tier sets past construction
}

// NumASes returns the number of ASes the index covers.
func (ci *ClassIndex) NumASes() int { return ci.n }

// NumClasses returns the number of equivalence classes.
func (ci *ClassIndex) NumClasses() int { return len(ci.reps) }

// ClassOf returns the class id of dense index i.
func (ci *ClassIndex) ClassOf(i int) int32 { return ci.classOf[i] }

// Rep returns the dense index of class c's representative (its smallest
// member).
func (ci *ClassIndex) Rep(c int) int32 { return ci.reps[c] }

// Size returns the member count of class c.
func (ci *ClassIndex) Size(c int) int32 { return ci.size[c] }

// CollapseRatio returns ASes per class — the sweep-work reduction factor.
func (ci *ClassIndex) CollapseRatio() float64 {
	if len(ci.reps) == 0 {
		return 1
	}
	return float64(ci.n) / float64(len(ci.reps))
}

// Evolve derives the class index of ng from this one, given that only the
// ASes in touched (plus any AS absent from the old graph) may have changed
// neighborhoods or annotations. Untouched ASes copy their arena segments
// and fingerprints verbatim; touched and new ASes recompute from ng. The
// result is identical to NewClassIndex(ng, tier1, tier2, annot) — the
// class grouping pass always reruns in full, only the per-AS signature
// work is carried — provided touched really covers every AS whose
// adjacency rows or tier membership differ (callers gate on tier-set
// equality and pass every delta link endpoint).
func (ci *ClassIndex) Evolve(ng *astopo.Graph, tier1, tier2 astopo.ASSet, annot []uint64, touched []astopo.ASN) *ClassIndex {
	ng.Freeze()
	n := ng.NumASes()
	next := &ClassIndex{
		n:       n,
		nodes:   ng.ASes(),
		classOf: make([]int32, n),
		sig:     make([]uint64, n),
		tier:    make([]uint8, n),
		annot:   make([]uint64, n),
		off:     make([]int32, n+1),
		pLen:    make([]int32, n),
		cLen:    make([]int32, n),
		t1:      tier1,
		t2:      tier2,
	}
	if annot != nil {
		copy(next.annot, annot)
	}
	dirty := make(map[astopo.ASN]bool, len(touched))
	for _, a := range touched {
		dirty[a] = true
	}
	// Size the arena at the old total plus room for the touched segments;
	// append still grows it if a delta adds more adjacency than that.
	next.arena = make([]astopo.ASN, 0, len(ci.arena)+64*len(touched))
	old := ci.nodes
	oi := 0
	for i := 0; i < n; i++ {
		a := next.nodes[i]
		for oi < len(old) && old[oi] < a {
			oi++ // AS removed from the graph; its segment is dropped
		}
		carried := false
		// Annotations are caller state, not graph state: carry a segment
		// only when the annotation also matches, else re-derive.
		if oi < len(old) && old[oi] == a && !dirty[a] && next.annot[i] == ci.annot[oi] {
			j := oi
			next.off[i] = int32(len(next.arena))
			next.arena = append(next.arena, ci.arena[ci.off[j]:ci.off[j+1]]...)
			next.off[i+1] = int32(len(next.arena))
			next.pLen[i], next.cLen[i] = ci.pLen[j], ci.cLen[j]
			next.tier[i] = ci.tier[j]
			next.sig[i] = ci.sig[j]
			carried = true
		}
		if !carried {
			next.computeSig(ng, i)
		}
	}
	next.group()
	return next
}
