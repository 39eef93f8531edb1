// Package astopo models the AS-level topology of the Internet: autonomous
// systems, the business relationships between them (peer-to-peer and
// customer-to-provider), and the derived structures the paper's analysis
// needs — customer cones, transit degrees, and the Tier-1/Tier-2 sets.
//
// The package reads and writes the CAIDA AS-relationship file formats
// (serial-1 and serial-2) so real datasets can be substituted for the
// synthetic topologies produced by package topogen.
package astopo

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// ASN is an autonomous system number.
type ASN uint32

// Rel is the business relationship of a link, from the perspective of the
// first AS in the pair.
type Rel int8

const (
	// P2C marks a provider-to-customer link: the first AS sells transit
	// to the second. CAIDA serial-1 encodes this as -1.
	P2C Rel = -1
	// P2P marks a settlement-free peer-to-peer link. CAIDA serial-1
	// encodes this as 0.
	P2P Rel = 0
	// C2P marks a customer-to-provider view of a link. It is never stored
	// (links are stored provider-first as P2C) but is returned by queries
	// such as HasLink when the queried AS is the customer.
	C2P Rel = 1
)

func (r Rel) String() string {
	switch r {
	case P2C:
		return "p2c"
	case P2P:
		return "p2p"
	case C2P:
		return "c2p"
	}
	return fmt.Sprintf("rel(%d)", int8(r))
}

// Link is one inter-AS adjacency with its relationship. For P2C links A is
// the provider and B the customer; for P2P links the order carries no
// meaning but is preserved from the source data.
type Link struct {
	A, B ASN
	Rel  Rel
}

// Graph is an AS-level topology. The zero value is an empty graph ready to
// use. Graphs are cheap to query but are built incrementally; call Freeze
// (or any query that requires indexes) after the last mutation to build the
// adjacency rows, from which HasLink also answers.
//
// The frozen adjacency state is held in flat arrays (sorted node list,
// offset-based CSR rows over one shared arena) with no pointer-shaped
// indexes, so a frozen graph can be reconstructed in O(1) from externally
// owned memory — see Frozen and FromFrozen. Memory handed to FromFrozen may
// be read-only (an mmap'd snapshot); the graph never writes to it.
type Graph struct {
	links []Link

	// Raw link columns for views built by FromFrozen; Links() materializes
	// the []Link form lazily from these on first use.
	rawA, rawB []ASN
	rawRel     []Rel

	// index state, built by Freeze (or borrowed via FromFrozen).
	frozen bool
	nodes  []ASN // sorted unique ASNs
	// CSR adjacency: row i of providers is arena[provOff[i]:provOff[i+1]],
	// likewise customers and peers. All offsets are absolute into arena.
	provOff, custOff, peerOff []int32
	arena                     []int32
	// hasCust has bit i set when row i of customers is nonempty: the one
	// adjacency fact the propagation engines test per settle, kept as
	// 1 bit per AS so the test stays in cache (see HasCustomers).
	hasCust []uint64

	// pairs holds every link's PairKey while the graph is built link by
	// link, for AddLinkIfAbsent's duplicate check. It is sized from the
	// link slice's capacity when first built; Freeze and AddLinksIfAbsent
	// drop it, and the next single add rebuilds it from the links.
	pairs pairSet
}

// NewGraph returns an empty graph with capacity hints for n ASes and m
// links. The m hint also sizes the pair set of the first AddLinkIfAbsent,
// so it should count the links that will be added one at a time: a graph
// whose bulk arrives through AddLinksIfAbsent is hinted with the links
// added before that batch, and the batch sizes the slice for itself.
func NewGraph(n, m int) *Graph {
	return &Graph{links: make([]Link, 0, m)}
}

// FromLinks returns a graph over a pre-validated link slice, taking
// ownership of it (the caller must not mutate it while the graph is in
// use). Construction is O(1): no pair set is built unless the graph is
// mutated, so derived graphs that are only frozen and queried (e.g.
// topogen's delta apply) never pay for one. Links must be valid and
// unique as if added through AddLink.
func FromLinks(links []Link) *Graph {
	return &Graph{links: links}
}

// Frozen is the flat-array form of a frozen graph: everything Freeze
// computes, exposed as plain slices so it can be serialized verbatim and
// reconstructed without re-deriving indexes. Offsets are absolute into
// Arena; each offset slice has len(Nodes)+1 entries.
type Frozen struct {
	Nodes                     []ASN
	ProvOff, CustOff, PeerOff []int32
	Arena                     []int32
	LinkA, LinkB              []ASN
	LinkRel                   []Rel
}

// Frozen returns the graph's frozen state. The slices are shared with the
// graph (and may be borrowed read-only memory); callers must not modify
// them.
func (g *Graph) Frozen() Frozen {
	g.Freeze()
	f := Frozen{
		Nodes:   g.nodes,
		ProvOff: g.provOff, CustOff: g.custOff, PeerOff: g.peerOff,
		Arena: g.arena,
		LinkA: g.rawA, LinkB: g.rawB, LinkRel: g.rawRel,
	}
	if f.LinkA == nil {
		m := len(g.links)
		cols := make([]ASN, 2*m)
		f.LinkA, f.LinkB = cols[:m], cols[m:]
		f.LinkRel = make([]Rel, m)
		for i, l := range g.links {
			f.LinkA[i], f.LinkB[i], f.LinkRel[i] = l.A, l.B, l.Rel
		}
	}
	return f
}

// FromFrozen reconstructs a frozen graph view over externally built arrays
// without copying them; the only work is deriving the one-bit-per-AS
// customer bitset from CustOff. The arrays may live in read-only memory (an
// mmap'd snapshot): the graph only writes to them if mutated, in which case
// AddLink first materializes a private []Link copy and the next Freeze
// rebuilds the indexes in fresh memory. The caller is responsible for the
// arrays being consistent (as produced by Frozen); only shape is checked.
func FromFrozen(f Frozen) (*Graph, error) {
	n, m := len(f.Nodes), len(f.LinkA)
	if len(f.ProvOff) != n+1 || len(f.CustOff) != n+1 || len(f.PeerOff) != n+1 {
		return nil, fmt.Errorf("astopo: offset rows sized %d/%d/%d, want %d",
			len(f.ProvOff), len(f.CustOff), len(f.PeerOff), n+1)
	}
	if len(f.LinkB) != m || len(f.LinkRel) != m {
		return nil, fmt.Errorf("astopo: link columns sized %d/%d/%d", m, len(f.LinkB), len(f.LinkRel))
	}
	if len(f.Arena) != 2*m {
		return nil, fmt.Errorf("astopo: arena has %d entries, want %d", len(f.Arena), 2*m)
	}
	return &Graph{
		rawA: f.LinkA, rawB: f.LinkB, rawRel: f.LinkRel,
		frozen:  true,
		nodes:   f.Nodes,
		provOff: f.ProvOff, custOff: f.CustOff, peerOff: f.PeerOff,
		arena:   f.Arena,
		hasCust: customerBits(f.CustOff),
	}, nil
}

// customerBits returns the hasCust bitset of a customer offset row.
func customerBits(custOff []int32) []uint64 {
	n := len(custOff) - 1
	set := make([]uint64, (n+63)/64)
	for i := 0; i < n; i++ {
		if custOff[i+1] > custOff[i] {
			set[i>>6] |= 1 << (i & 63)
		}
	}
	return set
}

// materializeLinks converts raw link columns into the mutable []Link form.
func (g *Graph) materializeLinks() {
	if g.links == nil && g.rawA != nil {
		ls := make([]Link, len(g.rawA))
		for i := range ls {
			ls[i] = Link{A: g.rawA[i], B: g.rawB[i], Rel: g.rawRel[i]}
		}
		g.links = ls
	}
}

// AddLink records a link. Duplicate pairs are rejected; a pair may appear
// only once regardless of direction. Self-links are rejected.
func (g *Graph) AddLink(a, b ASN, rel Rel) error {
	if a == b {
		return fmt.Errorf("astopo: self link on AS%d", a)
	}
	if rel != P2P && rel != P2C {
		return fmt.Errorf("astopo: invalid relationship %d for AS%d-AS%d", rel, a, b)
	}
	if !g.AddLinkIfAbsent(a, b, rel) {
		return fmt.Errorf("astopo: duplicate link AS%d-AS%d", a, b)
	}
	return nil
}

// MustAddLink is AddLink for construction code where a duplicate or invalid
// link indicates a programming error.
func (g *Graph) MustAddLink(a, b ASN, rel Rel) {
	if err := g.AddLink(a, b, rel); err != nil {
		panic(err)
	}
}

// AddLinkIfAbsent adds a link with relationship rel (P2C or P2P) unless
// a == b or any link between a and b already exists, and reports whether
// it added one. A pre-existing link's type is never modified, as §4.1 of
// the paper requires when traceroute-discovered cloud neighbors augment a
// BGP-feed topology. On an unfrozen graph the answer is one probe of the
// pair set; construction code that does not need the answer of each add
// passes its links to AddLinksIfAbsent instead.
func (g *Graph) AddLinkIfAbsent(a, b ASN, rel Rel) bool {
	if a == b {
		return false
	}
	checkRel(a, b, rel)
	if g.frozen {
		// Answer from the rows, so a rejected add leaves no set behind.
		if _, ok := g.HasLink(a, b); ok {
			return false
		}
	}
	if g.pairs.slots == nil {
		g.materializeLinks()
		g.pairs = newPairSet(cap(g.links))
		for _, l := range g.links {
			g.pairs.insert(PairKey(l.A, l.B))
		}
	}
	if !g.pairs.insert(PairKey(a, b)) {
		return false
	}
	g.links = append(g.links, Link{A: a, B: b, Rel: rel})
	g.rawA, g.rawB, g.rawRel = nil, nil, nil
	g.frozen = false
	return true
}

func checkRel(a, b ASN, rel Rel) {
	if rel != P2P && rel != P2C {
		panic(fmt.Sprintf("astopo: invalid relationship %d for AS%d-AS%d", rel, a, b))
	}
}

// AddLinksIfAbsent adds links in order, each unless it is a self pair or
// its pair is already linked, by the graph or by an earlier link of the
// batch, and returns how many it added. The graph ends exactly as if
// AddLinkIfAbsent had been called on each link in turn, but the batch is
// deduplicated by one stable radix sort of pair keys rather than one
// pair-set probe per link: a million random probes into a table of
// millions of slots miss cache on nearly every probe, while the sort
// streams. The survivors are appended in batch order, and the link slice
// grows at most once. The pair set is dropped; the next single add
// rebuilds it.
//
// A sort key packs the pair's two endpoint offsets from the smallest ASN
// above the position of its link, so the sort needs the ASN span and the
// link count to fit 64 bits together. Graphs past that (a 32-bit ASN span
// leaves no room, nor does the -scale 20 stress world's 21M links) take
// the one-probe-per-link path.
func (g *Graph) AddLinksIfAbsent(links []Link) int {
	if len(links) == 0 {
		return 0
	}
	g.materializeLinks()
	old := g.links
	lo, hi := links[0].A, links[0].A
	for _, l := range links {
		checkRel(l.A, l.B, l.Rel)
		lo, hi = min(lo, l.A, l.B), max(hi, l.A, l.B)
	}
	for _, l := range old {
		lo, hi = min(lo, l.A, l.B), max(hi, l.A, l.B)
	}
	w := uint(bits.Len32(uint32(hi - lo)))
	posBits := uint(bits.Len(uint(len(old) + len(links))))
	if 2*w+posBits > 64 {
		// Size the slice for the batch, and the pair set with it when
		// the first add rebuilds it, so neither grows link by link.
		g.links = slices.Grow(g.links, len(links))
		g.pairs = pairSet{}
		added := 0
		for _, l := range links {
			if g.AddLinkIfAbsent(l.A, l.B, l.Rel) {
				added++
			}
		}
		return added
	}

	// One key per existing link and per batch link that is not a self
	// pair, in position order: existing links first, then the batch.
	keys := make([]uint64, 0, len(old)+len(links))
	key := func(a, b ASN) uint64 {
		a, b = a-lo, b-lo
		if a > b {
			a, b = b, a
		}
		return (uint64(a)<<w | uint64(b)) << posBits
	}
	for i, l := range old {
		keys = append(keys, key(l.A, l.B)|uint64(i))
	}
	for j, l := range links {
		if l.A != l.B {
			keys = append(keys, key(l.A, l.B)|uint64(len(old)+j))
		}
	}
	keys = radixSortAbove(keys, posBits, 2*w)

	// The first position of each run of equal pairs holds the link that
	// AddLinkIfAbsent would have kept; it is new when it is in the batch.
	keep := make([]uint64, (len(links)+63)/64)
	added := 0
	for i, x := range keys {
		if i > 0 && x>>posBits == keys[i-1]>>posBits {
			continue
		}
		if j := int(x&(1<<posBits-1)) - len(old); j >= 0 {
			keep[j>>6] |= 1 << (j & 63)
			added++
		}
	}
	if added == 0 {
		return 0
	}
	// Appending the whole batch grows the slice by copying rather than
	// zeroing; the survivors are then compacted over the copy.
	kept := append(g.links, links...)[:len(g.links)]
	for j, l := range links {
		if keep[j>>6]&(1<<(j&63)) != 0 {
			kept = append(kept, l)
		}
	}
	g.links = kept
	g.rawA, g.rawB, g.rawRel = nil, nil, nil
	g.pairs = pairSet{}
	g.frozen = false
	return added
}

// radixSortAbove sorts keys by their bits [shift, shift+width), which
// must be the highest bits set, and returns the sorted keys in a new slice.
// Keys that tie on those bits keep their input order. One pass partitions
// the keys by their top digit into buckets of a few thousand keys; each
// bucket is then sorted on the remaining bits by LSD passes while it sits
// in cache, so only the partition scatters keys across memory. Digits are
// at most 11 bits, so a pass's histogram stays in L1.
func radixSortAbove(keys []uint64, shift, width uint) []uint64 {
	const maxDigit, bucketKeys = 11, 12 // bucketKeys: log2 of a bucket's mean size
	if len(keys) < 2 {
		return slices.Clone(keys)
	}
	top := min(width, maxDigit, uint(bits.Len(uint(len(keys))>>bucketKeys)))
	rest := width - top
	start := make([]int32, 1<<top+1)
	for _, x := range keys {
		start[x>>(shift+rest)+1]++
	}
	for d := 1; d < len(start); d++ {
		start[d] += start[d-1]
	}
	out := make([]uint64, len(keys))
	next := slices.Clone(start[:1<<top])
	for _, x := range keys {
		d := x >> (shift + rest)
		out[next[d]] = x
		next[d]++
	}
	if rest == 0 {
		return out
	}
	passes := (rest + maxDigit - 1) / maxDigit
	dw := (rest + passes - 1) / passes
	mask := uint64(1)<<dw - 1
	c := make([]int32, 1<<dw)
	var buf []uint64
	for d := 0; d < 1<<top; d++ {
		bucket := out[start[d]:start[d+1]]
		if len(bucket) < 2 {
			continue
		}
		buf = slices.Grow(buf[:0], len(bucket))[:len(bucket)]
		src, dst := bucket, buf
		for s := shift; s < shift+rest; s += dw {
			clear(c)
			for _, x := range src {
				c[x>>s&mask]++
			}
			var at int32
			for i := range c {
				c[i], at = at, at+c[i]
			}
			for _, x := range src {
				dg := x >> s & mask
				dst[c[dg]] = x
				c[dg]++
			}
			src, dst = dst, src
		}
		if &src[0] != &bucket[0] {
			copy(bucket, src)
		}
	}
	return out
}

// PairKey is the direction-free key of the pair {a, b}. The key of two
// distinct ASes is never 0: the larger one fills the low half.
func PairKey(a, b ASN) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// pairSet is an open-addressed set of PairKeys with linear probing. Zero
// marks an empty slot, which no key of a valid link can collide with. The
// set only grows; the zero value holds no table.
type pairSet struct {
	slots []uint64 // power-of-two length
	shift uint     // 64 - log2(len(slots)): a hash's top bits pick the slot
	n     int
}

// newPairSet returns a set that holds n keys before it first grows.
func newPairSet(n int) pairSet {
	size, shift := 16, uint(60)
	for size*5 < n*8 { // keep the load at most 5/8
		size, shift = size*2, shift-1
	}
	return pairSet{slots: make([]uint64, size), shift: shift}
}

// insert adds k (non-zero) and reports whether it was absent.
func (s *pairSet) insert(k uint64) bool {
	mask := uint64(len(s.slots) - 1)
	for i := (k * 0x9E3779B97F4A7C15) >> s.shift; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case k:
			return false
		case 0:
			s.slots[i] = k
			s.n++
			if s.n*8 > len(s.slots)*5 {
				s.grow()
			}
			return true
		}
	}
}

// grow rehashes the keys into a table twice the size.
func (s *pairSet) grow() {
	old := s.slots
	*s = pairSet{slots: make([]uint64, 2*len(old)), shift: s.shift - 1}
	for _, k := range old {
		if k != 0 {
			s.insert(k)
		}
	}
}

// HasLink reports whether any link exists between a and b, and its
// relationship from a's perspective: P2C means a is b's provider, C2P means
// a is b's customer, P2P means they peer. It freezes the graph and scans
// the rows of the endpoint with fewer neighbors; construction code that
// skips existing pairs calls AddLinkIfAbsent instead.
func (g *Graph) HasLink(a, b ASN) (Rel, bool) {
	i, okA := g.Index(a)
	j, okB := g.Index(b)
	if !okA || !okB {
		return 0, false
	}
	flip := g.degreeAt(j) < g.degreeAt(i)
	if flip {
		i, j = j, i
	}
	var rel Rel
	switch n := int32(j); {
	case slices.Contains(g.CustomersOf(i), n):
		rel = P2C
	case slices.Contains(g.ProvidersOf(i), n):
		rel = C2P
	case slices.Contains(g.PeersOf(i), n):
		rel = P2P
	default:
		return 0, false
	}
	if flip {
		rel = -rel // the rows scanned were b's: P2C and C2P swap
	}
	return rel, true
}

// Clone returns a deep copy of the graph. The copy is unfrozen; its first
// mutation builds its pair set from the copied links.
func (g *Graph) Clone() *Graph {
	ng := NewGraph(len(g.nodes), g.NumLinks())
	ng.links = append(ng.links, g.Links()...)
	return ng
}

// Links returns the graph's links. The returned slice is shared; callers
// must not modify it. For graphs built by FromFrozen the []Link form is
// materialized (copied out of the borrowed columns) on first call.
func (g *Graph) Links() []Link {
	g.materializeLinks()
	return g.links
}

// NumLinks returns the number of links.
func (g *Graph) NumLinks() int {
	if g.links == nil && g.rawA != nil {
		return len(g.rawA)
	}
	return len(g.links)
}

// Freeze builds the adjacency indexes. It is idempotent and is called
// automatically by queries that need indexes; exposed so callers can choose
// when to pay the cost.
//
// Dense indexes come from numbering the link endpoints by ASN (see
// numberEndpoints), so index i is the i-th smallest ASN. The adjacency
// rows are carved out of one shared arena (CSR layout): a counting pass
// sizes every row up front, so freezing costs a handful of allocations
// regardless of the node count — per-node append growth would
// otherwise dominate workloads that rebuild derived graphs in a loop, such
// as topogen's delta apply. Rows are filled in link order (P2P links
// contribute both directions at the same step), keeping the exact
// neighbor order of incremental appends, which the propagation code's
// determinism depends on.
//
// The frozen check is split from the build so that Freeze, and with it
// every adjacency accessor, inlines into the propagation loops.
func (g *Graph) Freeze() {
	if !g.frozen {
		g.freeze()
	}
}

func (g *Graph) freeze() {
	g.pairs = pairSet{} // the rows answer HasLink from here on
	var ends []int32
	g.nodes, ends = numberEndpoints(g.links)
	n := len(g.nodes)
	deg := make([]int32, 3*n)
	provDeg, custDeg, peerDeg := deg[:n], deg[n:2*n], deg[2*n:]
	for k, l := range g.links {
		ai, bi := ends[2*k], ends[2*k+1]
		switch l.Rel {
		case P2P:
			peerDeg[ai]++
			peerDeg[bi]++
		case P2C:
			custDeg[ai]++
			provDeg[bi]++
		}
	}
	// Prefix-sum the three degree groups into absolute arena offsets
	// (providers first, then customers, then peers), and fill rows in link
	// order via a moving cursor. P2P links contribute both directions at
	// the same step, keeping the exact neighbor order of incremental
	// appends, which the propagation code's determinism depends on.
	offs := make([]int32, 3*(n+1))
	g.provOff, g.custOff, g.peerOff = offs[:n+1], offs[n+1:2*(n+1)], offs[2*(n+1):]
	var off int32
	for i := 0; i < n; i++ {
		g.provOff[i] = off
		off += provDeg[i]
	}
	g.provOff[n] = off
	for i := 0; i < n; i++ {
		g.custOff[i] = off
		off += custDeg[i]
	}
	g.custOff[n] = off
	for i := 0; i < n; i++ {
		g.peerOff[i] = off
		off += peerDeg[i]
	}
	g.peerOff[n] = off
	g.arena = make([]int32, 2*len(g.links))
	// The degrees are spent: their memory holds the row cursors.
	provCur, custCur, peerCur := provDeg, custDeg, peerDeg
	copy(provCur, g.provOff[:n])
	copy(custCur, g.custOff[:n])
	copy(peerCur, g.peerOff[:n])
	for k, l := range g.links {
		ai, bi := ends[2*k], ends[2*k+1]
		switch l.Rel {
		case P2P:
			g.arena[peerCur[ai]] = bi
			peerCur[ai]++
			g.arena[peerCur[bi]] = ai
			peerCur[bi]++
		case P2C:
			g.arena[custCur[ai]] = bi
			custCur[ai]++
			g.arena[provCur[bi]] = ai
			provCur[bi]++
		}
	}
	g.hasCust = customerBits(g.custOff)
	g.frozen = true
}

// numberEndpoints returns the sorted unique ASNs of links and the dense
// index of every endpoint among them: ends[2k] is links[k].A's and
// ends[2k+1] is links[k].B's.
//
// The path follows the ASN span. When a bitmap of the span holds no more
// words than there are endpoints, as for every generated world (about
// 270k ASNs over a million links), rankEndpoints numbers the endpoints
// from the bitmap in two passes over the links, its tables in cache.
// Wider spans, such as the 32-bit ASNs of a CAIDA file, would need a
// bitmap larger than the links themselves and are radix-sorted by
// sortEndpoints.
func numberEndpoints(links []Link) (nodes []ASN, ends []int32) {
	if len(links) == 0 {
		return []ASN{}, nil
	}
	lo, hi := links[0].A, links[0].A
	for _, l := range links {
		lo, hi = min(lo, l.A, l.B), max(hi, l.A, l.B)
	}
	if rankSpan(hi-lo, len(links)) {
		return rankEndpoints(links, lo, hi)
	}
	return sortEndpoints(links, lo, hi)
}

// rankSpan reports whether numberEndpoints ranks an ASN span over m links
// through a bitmap: the bitmap may hold at most one word per endpoint.
func rankSpan(span ASN, m int) bool {
	return uint64(span)>>6 < 2*uint64(m)
}

// rankEndpoints sets one bit per present ASN in a bitmap of the span
// [lo, hi], counts the bits of each word into a prefix rank, and reads
// every endpoint's index as its word's rank plus the set bits below it.
func rankEndpoints(links []Link, lo, hi ASN) (nodes []ASN, ends []int32) {
	words := make([]uint64, (hi-lo)>>6+1)
	for _, l := range links {
		a, b := l.A-lo, l.B-lo
		words[a>>6] |= 1 << (a & 63)
		words[b>>6] |= 1 << (b & 63)
	}
	rank := make([]int32, len(words))
	var n int32
	for i, w := range words {
		rank[i] = n
		n += int32(bits.OnesCount64(w))
	}
	nodes = make([]ASN, 0, n)
	for i, w := range words {
		for ; w != 0; w &= w - 1 {
			nodes = append(nodes, lo+ASN(i<<6+bits.TrailingZeros64(w)))
		}
	}
	index := func(a ASN) int32 {
		a -= lo
		return rank[a>>6] + int32(bits.OnesCount64(words[a>>6]&(1<<(a&63)-1)))
	}
	ends = make([]int32, 2*len(links))
	for k, l := range links {
		ends[2*k], ends[2*k+1] = index(l.A), index(l.B)
	}
	return nodes, ends
}

// sortEndpoints sorts the keys (ASN-lo)<<32 | endpoint with a stable
// two-pass LSD radix sort, then numbers the ASNs in one scan of the sorted
// run. Each pass sorts on half the bits of the ASN span, so any ASN set
// takes at most two 16-bit passes. The first pass scatters straight from
// the links, so no unsorted key array is built.
func sortEndpoints(links []Link, lo, hi ASN) (nodes []ASN, ends []int32) {
	w := uint(bits.Len32(uint32(hi-lo))+1) / 2
	mask := ASN(1)<<w - 1
	cnt := make([]int32, 2<<w)
	low, high := cnt[:1<<w], cnt[1<<w:]
	for _, l := range links {
		a, b := l.A-lo, l.B-lo
		low[a&mask]++
		high[a>>w]++
		low[b&mask]++
		high[b>>w]++
	}
	var startLow, startHigh int32
	for d := range low {
		low[d], startLow = startLow, startLow+low[d]
		high[d], startHigh = startHigh, startHigh+high[d]
	}
	byLow := make([]uint64, 2*len(links))
	for k, l := range links {
		a, b, e := l.A-lo, l.B-lo, uint64(2*k)
		byLow[low[a&mask]] = uint64(a)<<32 | e
		low[a&mask]++
		byLow[low[b&mask]] = uint64(b)<<32 | e | 1
		low[b&mask]++
	}
	keys := make([]uint64, len(byLow))
	for _, x := range byLow {
		d := x >> (32 + w)
		keys[high[d]] = x
		high[d]++
	}
	n := 0
	for i, x := range keys {
		if i == 0 || x>>32 != keys[i-1]>>32 {
			n++
		}
	}
	nodes = make([]ASN, 0, n)
	ends = make([]int32, len(keys))
	for _, x := range keys {
		if a := lo + ASN(x>>32); len(nodes) == 0 || nodes[len(nodes)-1] != a {
			nodes = append(nodes, a)
		}
		ends[uint32(x)] = int32(len(nodes) - 1)
	}
	return nodes, ends
}

// NumASes returns the number of ASes appearing in at least one link.
func (g *Graph) NumASes() int {
	g.Freeze()
	return len(g.nodes)
}

// ASes returns the sorted list of ASNs in the graph. The returned slice is
// shared; callers must not modify it.
func (g *Graph) ASes() []ASN {
	g.Freeze()
	return g.nodes
}

// Index returns the dense index of an ASN and whether it is present.
// Dense indexes are stable for a frozen graph and are the currency of the
// propagation code in package bgpsim. The lookup is a binary search over
// the sorted node list — no map is materialized, so graphs reconstructed
// from a snapshot pay nothing for index availability.
func (g *Graph) Index(a ASN) (int, bool) {
	g.Freeze()
	return slices.BinarySearch(g.nodes, a)
}

// ASNAt returns the ASN at a dense index.
func (g *Graph) ASNAt(i int) ASN {
	g.Freeze()
	return g.nodes[i]
}

// ProvidersOf returns the dense indexes of i's transit providers.
func (g *Graph) ProvidersOf(i int) []int32 {
	g.Freeze()
	return g.arena[g.provOff[i]:g.provOff[i+1]]
}

// CustomersOf returns the dense indexes of i's customers.
func (g *Graph) CustomersOf(i int) []int32 {
	g.Freeze()
	return g.arena[g.custOff[i]:g.custOff[i+1]]
}

// HasCustomers reports whether i has at least one customer. Unless it
// originates, an AS without customers holds only peer and provider routes,
// which Gao–Rexford exports to customers alone: the propagation engines
// settle such an AS but never relay from it.
func (g *Graph) HasCustomers(i int) bool {
	g.Freeze()
	return g.hasCust[i>>6]&(1<<(i&63)) != 0
}

// PeersOf returns the dense indexes of i's settlement-free peers.
func (g *Graph) PeersOf(i int) []int32 {
	g.Freeze()
	return g.arena[g.peerOff[i]:g.peerOff[i+1]]
}

// Providers returns the ASNs of a's transit providers, sorted.
func (g *Graph) Providers(a ASN) []ASN {
	return g.relASNs(a, g.ProvidersOf)
}

// Customers returns the ASNs of a's customers, sorted.
func (g *Graph) Customers(a ASN) []ASN {
	return g.relASNs(a, g.CustomersOf)
}

// Peers returns the ASNs of a's peers, sorted.
func (g *Graph) Peers(a ASN) []ASN { return g.relASNs(a, g.PeersOf) }

func (g *Graph) relASNs(a ASN, pick func(int) []int32) []ASN {
	g.Freeze()
	i, ok := g.Index(a)
	if !ok {
		return nil
	}
	rows := pick(i)
	out := make([]ASN, len(rows))
	for k, r := range rows {
		out[k] = g.nodes[r]
	}
	sort.Slice(out, func(x, y int) bool { return out[x] < out[y] })
	return out
}

// Degree returns the total number of neighbors of a.
func (g *Graph) Degree(a ASN) int {
	i, ok := g.Index(a)
	if !ok {
		return 0
	}
	return g.degreeAt(i)
}

func (g *Graph) degreeAt(i int) int {
	return len(g.ProvidersOf(i)) + len(g.CustomersOf(i)) + len(g.PeersOf(i))
}

// TransitDegree returns the number of unique neighbors that appear on either
// side of a in transit (p2c) links — the AS-Rank transit degree metric.
func (g *Graph) TransitDegree(a ASN) int {
	i, ok := g.Index(a)
	if !ok {
		return 0
	}
	return len(g.ProvidersOf(i)) + len(g.CustomersOf(i))
}
