// Package netdb builds the synthetic IPv4 address plan that the traceroute
// and IP→AS-mapping pipelines operate on, substituting for the real
// Internet's routed address space (DESIGN.md §2).
//
// Every AS is allocated a block (a /16 up to ~21k ASes, a /18 beyond that
// so the paper's full 69,488-AS topology fits in IPv4) from which it
// announces routes and numbers its router interfaces. Inter-AS link
// subnets follow real-world conventions that drive the paper's §5
// inference pitfalls:
//
//   - provider-to-customer links are numbered from the provider's space, so
//     the customer's border interface resolves to the provider (a
//     "third-party address" trap);
//   - private peerings are numbered from one peer's space;
//   - IXP peerings are numbered from the exchange's LAN, which is usually
//     NOT announced in BGP (so Cymru-style longest-prefix matching fails)
//     but is listed in PeeringDB; a minority of IXP operators do announce
//     their LAN from an exchange ASN, which then resolves to the *wrong*
//     AS unless PeeringDB is preferred (§5's final methodology step).
package netdb

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"

	"flatnet/internal/astopo"
	"flatnet/internal/topogen"
)

// LinkSide identifies the two ends of a link.
type LinkSide int

const (
	// SideA is the side of Link.A.
	SideA LinkSide = iota
	// SideB is the side of Link.B.
	SideB
)

// LinkNumbering describes how one inter-AS link is addressed.
type LinkNumbering struct {
	// AAddr and BAddr are the interface addresses of the Link.A and
	// Link.B routers on the shared subnet.
	AAddr, BAddr netip.Addr
	// Owner is the AS from whose space the subnet is numbered; zero when
	// the subnet is an IXP LAN.
	Owner astopo.ASN
	// IXP is the index of the exchange whose LAN numbers this link, or
	// -1 for point-to-point subnets.
	IXP int
}

// IXPLan describes one exchange's peering LAN.
type IXPLan struct {
	Prefix netip.Prefix
	// OperatorASN is the exchange's route-server ASN; nonzero only when
	// the operator announces the LAN into BGP.
	OperatorASN astopo.ASN
	// Announced reports whether the LAN appears in the global table.
	Announced bool
	// MemberAddr maps member ASes to their address on the LAN (the
	// ground truth used to number links).
	MemberAddr map[astopo.ASN]netip.Addr
	// StaleEntries are PeeringDB "netixlan" rows that attribute an
	// address to the wrong member (operator data-entry errors) — the
	// residual false-positive source that keeps even the paper's final
	// methodology at a nonzero FDR.
	StaleEntries map[netip.Addr]astopo.ASN
}

// Plan is the complete address plan for one generated Internet.
type Plan struct {
	in *topogen.Internet

	// ASPrefix is each AS's block allocation (/16, or /18 at large scale).
	ASPrefix map[astopo.ASN]netip.Prefix
	// Extra are additional announced prefixes: /24 more-specifics for
	// content-heavy ASes, plus overflow link-subnet blocks for hub ASes
	// whose own block ran out of point-to-point subnets.
	Extra map[astopo.ASN][]netip.Prefix
	// Infra maps ASes that number their internal routers from an
	// unannounced infrastructure block (registered in whois only) — a
	// common operational practice that defeats prefix-based IP->AS
	// mapping and motivated the paper's whois fallback (§5).
	Infra map[astopo.ASN]netip.Prefix
	// Lans are the IXP LANs, indexed like Internet.IXPs.
	Lans []IXPLan
	// Links numbers every inter-AS link, keyed by the canonical
	// (smaller ASN, larger ASN) pair.
	Links map[[2]astopo.ASN]LinkNumbering
}

// ixpAnnounceFrac is the fraction of IXP LANs announced into BGP by their
// operator (the §5 artifact that made Cymru resolve member addresses to the
// exchange AS).
const ixpAnnounceFrac = 0.3

// infraFrac is the fraction of non-cloud ASes numbering internal routers
// from unannounced infrastructure space (a /20 per AS carved from
// 100.0.0.0 upward, far from both the per-AS blocks and the IXP LANs).
const infraFrac = 0.35

// Address-plan regions (all bases in uint32 address form):
//
//	 16.0.0.0 .. <100.0.0.0   per-AS blocks, sequential by dense index
//	100.0.0.0 .. <122.0.0.0   unannounced infrastructure /20s
//	130.0.0.0 .. <193.0.0.0   overflow link-subnet blocks for hub ASes
//	193.0.0.0 ..              IXP LANs, /20 each
//
// /16 blocks fit 21,504 ASes below 100.0.0.0; past that Build switches to
// /18s, which hold 86,016 — comfortably above the paper's 69,488.
const (
	asBlockBase   = uint32(16) << 24
	overflowBase  = uint32(130) << 24
	overflowLimit = uint32(193) << 24
	max16ASes     = 21504
	max18ASes     = 86016
)

// pdbStaleFrac is the fraction of PeeringDB netixlan rows attributing an
// exchange address to the wrong member.
const pdbStaleFrac = 0.04

// ixpOperatorASNBase numbers the synthetic exchange route-server ASNs; it
// sits above the topology generator's synthetic AS range.
const ixpOperatorASNBase astopo.ASN = 3000000

// Build allocates the address plan for in, deterministically from the
// topology's seed.
func Build(in *topogen.Internet) (*Plan, error) {
	g := in.Graph
	g.Freeze()
	if g.NumASes() > max18ASes {
		return nil, fmt.Errorf("netdb: %d ASes exceed the /18-per-AS plan capacity (%d)", g.NumASes(), max18ASes)
	}
	// Block size: /16s while they fit below the infrastructure region,
	// /18s for true-scale topologies. Small-scale plans are bit-identical
	// to the historical /16-only layout.
	asBits := 16
	if g.NumASes() > max16ASes {
		asBits = 18
	}
	blockSize := uint32(1) << (32 - asBits)
	rng := rand.New(rand.NewSource(in.Spec.Seed ^ 0x51ab17e))
	p := &Plan{
		in:       in,
		ASPrefix: make(map[astopo.ASN]netip.Prefix, g.NumASes()),
		Extra:    make(map[astopo.ASN][]netip.Prefix),
		Infra:    make(map[astopo.ASN]netip.Prefix),
		Links:    make(map[[2]astopo.ASN]LinkNumbering, g.NumLinks()),
	}

	// Per-AS blocks carved sequentially from 16.0.0.0 upward (dense index
	// order, so deterministic). About a third of non-cloud ASes number
	// their internal routers from an unannounced /20 past 100.0.0.0.
	// Extra /24s sit at the same relative position (200/256 of the way
	// into the block) at every block size.
	extraSlot := 200 * (blockSize >> 8) / 256
	for i, a := range g.ASes() {
		base := asBlockBase + uint32(i)*blockSize
		p.ASPrefix[a] = netip.PrefixFrom(addrFrom(base), asBits)
		if in.ClassAt(i) != topogen.ClassCloud && rng.Float64() < infraFrac {
			infra := uint32(100+i>>12)<<24 | uint32(i&0xfff)<<12
			p.Infra[a] = netip.PrefixFrom(addrFrom(infra), 20)
		}
		// Content networks announce a couple of extra /24s (more
		// specifics), exercising longest-prefix matching.
		if in.ClassAt(i) == topogen.ClassContent && rng.Float64() < 0.5 {
			n := 1 + rng.Intn(2)
			for k := 0; k < n; k++ {
				sub := base | (extraSlot+uint32(k))<<8
				p.Extra[a] = append(p.Extra[a], netip.PrefixFrom(addrFrom(sub), 24))
			}
		}
	}

	// IXP LANs: a /20 each from 193.0.0.0 upward, deliberately outside
	// the per-AS range.
	p.Lans = make([]IXPLan, len(in.IXPs))
	for k, ixp := range in.IXPs {
		base := uint32(193)<<24 | uint32(k)<<12
		lan := IXPLan{
			Prefix:     netip.PrefixFrom(addrFrom(base), 20),
			MemberAddr: make(map[astopo.ASN]netip.Addr, len(ixp.Members)),
		}
		if rng.Float64() < ixpAnnounceFrac {
			lan.Announced = true
			lan.OperatorASN = ixpOperatorASNBase + astopo.ASN(k)
		}
		next := 10
		members := make([]astopo.ASN, 0, len(ixp.Members))
		for _, m := range ixp.Members {
			if _, dup := lan.MemberAddr[m]; dup {
				continue
			}
			lan.MemberAddr[m] = addrFrom(base + uint32(next))
			members = append(members, m)
			next++
		}
		// A small share of PeeringDB rows are stale: the address is
		// recorded against a different member of the same exchange.
		// Members are visited in LAN-numbering order, not map order: the
		// rng draw sequence must be deterministic for equal seeds, or
		// two builds of the same spec diverge (and a snapshot would no
		// longer reproduce a fresh run).
		lan.StaleEntries = make(map[netip.Addr]astopo.ASN)
		if len(ixp.Members) >= 2 {
			for _, m := range members {
				if rng.Float64() < pdbStaleFrac {
					wrong := ixp.Members[rng.Intn(len(ixp.Members))]
					if wrong != m {
						lan.StaleEntries[lan.MemberAddr[m]] = wrong
					}
				}
			}
		}
		p.Lans[k] = lan
	}

	// Shared-IXP lookup for link provenance.
	ixpsOf := make(map[astopo.ASN][]int)
	for k, ixp := range in.IXPs {
		for _, m := range ixp.Members {
			ixpsOf[m] = append(ixpsOf[m], k)
		}
	}
	commonIXP := func(a, b astopo.ASN) int {
		bs := make(map[int]bool, len(ixpsOf[b]))
		for _, k := range ixpsOf[b] {
			bs[k] = true
		}
		for _, k := range ixpsOf[a] {
			if bs[k] {
				return k
			}
		}
		return -1
	}

	// Number every link. Per-owner subnet counters allocate /30-style
	// pairs from the top half of the owner's block, downward. Hub ASes
	// that exhaust it (transit giants at true scale own thousands of
	// customer links) continue in announced overflow blocks, so their
	// link addresses still resolve to them by longest-prefix match — the
	// multi-block numbering real carriers use. Overflow blocks are
	// allocated in link-iteration order, so the layout stays
	// deterministic for equal seeds.
	pairsPerBlock := int(blockSize / 2 / 4)
	pairsPerOverflow := int(blockSize / 4)
	subnetCount := make(map[astopo.ASN]int)
	overflowOf := make(map[astopo.ASN][]uint32)
	nextOverflow := overflowBase
	nextPair := func(owner astopo.ASN) (netip.Addr, netip.Addr, error) {
		k := subnetCount[owner]
		subnetCount[owner]++
		if k < pairsPerBlock {
			off := blockSize - 4 - 4*uint32(k)
			base := prefixBase(p.ASPrefix[owner])
			return addrFrom(base + off + 1), addrFrom(base + off + 2), nil
		}
		k -= pairsPerBlock
		blocks := overflowOf[owner]
		if k/pairsPerOverflow >= len(blocks) {
			if nextOverflow >= overflowLimit {
				return netip.Addr{}, netip.Addr{}, fmt.Errorf("netdb: overflow link-subnet space exhausted at AS%d", owner)
			}
			blocks = append(blocks, nextOverflow)
			overflowOf[owner] = blocks
			p.Extra[owner] = append(p.Extra[owner], netip.PrefixFrom(addrFrom(nextOverflow), asBits))
			nextOverflow += blockSize
		}
		base := blocks[k/pairsPerOverflow]
		off := blockSize - 4 - 4*uint32(k%pairsPerOverflow)
		return addrFrom(base + off + 1), addrFrom(base + off + 2), nil
	}

	for _, l := range g.Links() {
		key := canonKey(l.A, l.B)
		var num LinkNumbering
		num.IXP = -1
		switch l.Rel {
		case astopo.P2C:
			// Provider numbers the subnet.
			a1, a2, err := nextPair(l.A)
			if err != nil {
				return nil, err
			}
			num.Owner, num.AAddr, num.BAddr = l.A, a1, a2
		case astopo.P2P:
			if k := commonIXP(l.A, l.B); k >= 0 && rng.Float64() < 0.8 {
				num.IXP = k
				num.AAddr = p.Lans[k].MemberAddr[l.A]
				num.BAddr = p.Lans[k].MemberAddr[l.B]
				break
			}
			owner := l.A
			if rng.Intn(2) == 1 {
				owner = l.B
			}
			a1, a2, err := nextPair(owner)
			if err != nil {
				return nil, err
			}
			num.Owner = owner
			if owner == l.A {
				num.AAddr, num.BAddr = a1, a2
			} else {
				num.AAddr, num.BAddr = a2, a1
			}
		}
		// Normalize to canonical order: AAddr always belongs to the
		// smaller ASN of the pair.
		if l.A > l.B {
			num.AAddr, num.BAddr = num.BAddr, num.AAddr
		}
		p.Links[key] = num
	}
	return p, nil
}

// Internet returns the topology the plan was built for.
func (p *Plan) Internet() *topogen.Internet { return p.in }

// LinkAddr returns the interface address of the `side` end of the link
// between a and b, where side refers to the (a, b) ordering as passed (the
// first return is a's interface, the second is b's).
func (p *Plan) LinkAddr(a, b astopo.ASN) (aAddr, bAddr netip.Addr, ok bool) {
	num, found := p.Links[canonKey(a, b)]
	if !found {
		return netip.Addr{}, netip.Addr{}, false
	}
	if a < b {
		return num.AAddr, num.BAddr, true
	}
	return num.BAddr, num.AAddr, true
}

// LinkInfo returns the numbering record for the link between a and b.
func (p *Plan) LinkInfo(a, b astopo.ASN) (LinkNumbering, bool) {
	num, ok := p.Links[canonKey(a, b)]
	return num, ok
}

// InternalAddr returns the i-th internal router address of an AS: from the
// AS's unannounced infrastructure block when it has one, otherwise from the
// bottom of its announced block (away from the link subnets in the top
// half; the capacity scales with the block size).
func (p *Plan) InternalAddr(a astopo.ASN, i int) (netip.Addr, bool) {
	if infra, ok := p.Infra[a]; ok {
		if i < 0 || i >= 0xF00 {
			return netip.Addr{}, false
		}
		return addrFrom(prefixBase(infra) + 1 + uint32(i)), true
	}
	pfx, ok := p.ASPrefix[a]
	if !ok {
		return netip.Addr{}, false
	}
	limit := int(uint32(1)<<(32-pfx.Bits())/2) - 0x1000
	if i < 0 || i >= limit {
		return netip.Addr{}, false
	}
	return addrFrom(prefixBase(pfx) + 0x0100 + uint32(i)), true
}

// AnnouncedPrefixes returns every (prefix, origin ASN) pair visible in the
// simulated global routing table: per-AS /16s, extra /24s, and the minority
// of IXP LANs whose operators announce them.
func (p *Plan) AnnouncedPrefixes() []PrefixOrigin {
	out := make([]PrefixOrigin, 0, len(p.ASPrefix)+len(p.Lans))
	for _, a := range p.in.Graph.ASes() {
		out = append(out, PrefixOrigin{Prefix: p.ASPrefix[a], Origin: a})
		for _, e := range p.Extra[a] {
			out = append(out, PrefixOrigin{Prefix: e, Origin: a})
		}
	}
	for _, lan := range p.Lans {
		if lan.Announced {
			out = append(out, PrefixOrigin{Prefix: lan.Prefix, Origin: lan.OperatorASN})
		}
	}
	return out
}

// PrefixOrigin pairs an announced prefix with its origin AS.
type PrefixOrigin struct {
	Prefix netip.Prefix
	Origin astopo.ASN
}

func canonKey(a, b astopo.ASN) [2]astopo.ASN {
	if a < b {
		return [2]astopo.ASN{a, b}
	}
	return [2]astopo.ASN{b, a}
}

func addrFrom(v uint32) netip.Addr {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return netip.AddrFrom4(b)
}

func prefixBase(p netip.Prefix) uint32 {
	b := p.Addr().As4()
	return binary.BigEndian.Uint32(b[:])
}
