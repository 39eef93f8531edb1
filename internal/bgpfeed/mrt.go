package bgpfeed

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net/netip"
	"sync"

	"flatnet/internal/astopo"
	"flatnet/internal/bgpsim"
)

// This file implements the subset of the MRT format (RFC 6396) that real
// route collectors publish RIB snapshots in: TABLE_DUMP_V2 with a
// PEER_INDEX_TABLE record followed by RIB_IPV4_UNICAST records. A table
// transfer can be exported as an MRT RIB and read back — or real
// RouteViews .bz2 dumps (decompressed) can be read directly, giving the
// rest of the pipeline a path onto real data.
//
// Layout (all fields big-endian):
//
//	MRT common header: timestamp(4) type(2) subtype(2) length(4)
//	PEER_INDEX_TABLE:  collector-id(4) viewname-len(2) viewname
//	                   peer-count(2) { peer-type(1) bgp-id(4) ip(4|16) as(2|4) }
//	RIB_IPV4_UNICAST:  sequence(4) prefix-len(1) prefix(⌈len/8⌉)
//	                   entry-count(2) { peer-index(2) orig-time(4)
//	                   attr-len(2) attributes... }
//
// Attributes written: ORIGIN (IGP), AS_PATH (one AS_SEQUENCE segment,
// 4-byte ASNs as TABLE_DUMP_V2 mandates), NEXT_HOP (0.0.0.0 placeholder).

// MRT record types and subtypes used here.
const (
	mrtTypeTableDumpV2  = 13
	mrtSubtypePeerIndex = 1
	mrtSubtypeRIBIPv4   = 2
	bgpAttrOrigin       = 1
	bgpAttrASPath       = 2
	bgpAttrNextHop      = 3
	bgpASPathSeqSegment = 2
	attrFlagTransitive  = 0x40
	peerTypeAS4         = 0x02 // bit 1: AS number is 4 bytes
)

// RIBEntry is one (prefix, peer, path) row from an MRT RIB.
type RIBEntry struct {
	Prefix    netip.Prefix
	PeerIndex int
	// ASPath is collector-side first, origin last — the wire order.
	ASPath []astopo.ASN
}

// MRTRib is a parsed TABLE_DUMP_V2 snapshot.
type MRTRib struct {
	// Peers are the collector's BGP peers (the vantage points), indexed
	// as the RIB entries reference them.
	Peers []astopo.ASN
	// Entries are the RIB rows in file order.
	Entries []RIBEntry
}

// WriteMRT runs one table transfer over g from vps and writes it as a
// TABLE_DUMP_V2 RIB snapshot: the PEER_INDEX_TABLE of the VPs, then one
// RIB_IPV4_UNICAST record per origin that has a path and a prefix, in
// origin order. prefixOf maps each origin AS to the prefix it announces
// (one prefix per origin, as the synthetic plan allocates) and is called
// from several goroutines; timestamp stamps every record. It returns the
// number of paths written.
//
// The file streams: a record is encoded on the worker that walked its
// paths and written once every earlier origin's has been; until then it
// waits in a small pending map. No worker waits for another, since an
// origin whose propagation failed is never visited.
func WriteMRT(w io.Writer, g *astopo.Graph, vps []astopo.ASN, prefixOf func(astopo.ASN) (netip.Prefix, bool), timestamp uint32) (int, error) {
	origins := g.ASes()
	bw := bufio.NewWriter(w)
	var (
		mu      sync.Mutex
		next    int                // the least origin not yet written
		pending = map[int][]byte{} // finished records past next, nil for none
		seq     uint32             // sequence numbers count the records written
		paths   int
		werr    error
	)
	visit, err := walker(g, vps, func(int) func(int, [][]astopo.ASN) error {
		return func(oi int, ps [][]astopo.ASN) error {
			rec, n, err := ribRecord(origins[oi], prefixOf, ps, timestamp)
			if err != nil {
				return err
			}
			mu.Lock()
			defer mu.Unlock()
			pending[oi] = rec
			paths += n
			for ; werr == nil; next++ {
				rec, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				if rec != nil {
					binary.BigEndian.PutUint32(rec, seq)
					seq++
					werr = writeMRTRecord(bw, timestamp, mrtSubtypeRIBIPv4, rec)
				}
			}
			return werr
		}
	})
	if err != nil {
		return 0, err
	}

	// PEER_INDEX_TABLE.
	var pt []byte
	pt = be32(pt, 0x0A000001) // collector BGP ID
	pt = be16(pt, 0)          // empty view name
	pt = be16(pt, uint16(len(vps)))
	for i, vp := range vps {
		pt = append(pt, peerTypeAS4)        // IPv4 peer, 4-byte ASN
		pt = be32(pt, 0x0A000100+uint32(i)) // peer BGP ID
		pt = be32(pt, 0x0A000100+uint32(i)) // peer IPv4 address
		pt = be32(pt, uint32(vp))
	}
	if err := writeMRTRecord(bw, timestamp, mrtSubtypePeerIndex, pt); err != nil {
		return 0, err
	}
	if err := bgpsim.ForEachOrigin(g, visit); err != nil {
		return 0, err
	}
	return paths, bw.Flush()
}

// ribRecord encodes origin o's RIB_IPV4_UNICAST body, a zero sequence
// number first, with an entry for each VP that has a path, and returns it
// with the number of entries; it returns nil where o has no prefix or no
// VP has a path.
func ribRecord(o astopo.ASN, prefixOf func(astopo.ASN) (netip.Prefix, bool), paths [][]astopo.ASN, timestamp uint32) ([]byte, int, error) {
	n := 0
	for _, p := range paths {
		if p != nil {
			n++
		}
	}
	pfx, ok := prefixOf(o)
	if n == 0 || !ok {
		return nil, 0, nil
	}
	if !pfx.Addr().Is4() {
		return nil, 0, fmt.Errorf("bgpfeed: prefix %v for AS%d is not IPv4", pfx, o)
	}
	rec := make([]byte, 4) // sequence, numbered at write time
	rec = append(rec, byte(pfx.Bits()))
	a4 := pfx.Addr().As4()
	rec = append(rec, a4[:(pfx.Bits()+7)/8]...)
	rec = be16(rec, uint16(n))
	for k, p := range paths {
		if p == nil {
			continue
		}
		rec = be16(rec, uint16(k))
		rec = be32(rec, timestamp) // originated time
		rec = appendAttributes(rec, p)
	}
	return rec, n, nil
}

// appendAttributes appends a path's attribute block, its 2-byte length
// first: ORIGIN (IGP), AS_PATH (one AS_SEQUENCE of 4-byte ASNs) and the
// NEXT_HOP placeholder, 4+(3+2+4n)+7 bytes for n ASes.
func appendAttributes(b []byte, path []astopo.ASN) []byte {
	n := len(path)
	b = be16(b, uint16(16+4*n))
	b = append(b, attrFlagTransitive, bgpAttrOrigin, 1, 0)
	b = append(b, attrFlagTransitive, bgpAttrASPath, byte(2+4*n), bgpASPathSeqSegment, byte(n))
	for _, a := range path {
		b = be32(b, uint32(a))
	}
	return append(b, attrFlagTransitive, bgpAttrNextHop, 4, 0, 0, 0, 0)
}

func writeMRTRecord(w io.Writer, ts uint32, subtype uint16, body []byte) error {
	var hdr []byte
	hdr = be32(hdr, ts)
	hdr = be16(hdr, mrtTypeTableDumpV2)
	hdr = be16(hdr, subtype)
	hdr = be32(hdr, uint32(len(body)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// ReadMRT parses a TABLE_DUMP_V2 stream. Records of other MRT types are
// skipped; RIB entries referencing unknown peers or with malformed
// attributes produce errors.
func ReadMRT(r io.Reader) (*MRTRib, error) {
	br := bufio.NewReader(r)
	rib := &MRTRib{}
	for {
		hdr := make([]byte, 12)
		if _, err := io.ReadFull(br, hdr); err != nil {
			if err == io.EOF {
				return rib, nil
			}
			return nil, fmt.Errorf("bgpfeed: reading MRT header: %w", err)
		}
		typ := binary.BigEndian.Uint16(hdr[4:6])
		sub := binary.BigEndian.Uint16(hdr[6:8])
		length := binary.BigEndian.Uint32(hdr[8:12])
		if length > 1<<24 {
			return nil, fmt.Errorf("bgpfeed: implausible MRT record length %d", length)
		}
		body := make([]byte, length)
		if _, err := io.ReadFull(br, body); err != nil {
			return nil, fmt.Errorf("bgpfeed: reading MRT body: %w", err)
		}
		if typ != mrtTypeTableDumpV2 {
			continue
		}
		switch sub {
		case mrtSubtypePeerIndex:
			peers, err := parsePeerIndex(body)
			if err != nil {
				return nil, err
			}
			rib.Peers = peers
		case mrtSubtypeRIBIPv4:
			entries, err := parseRIBIPv4(body, len(rib.Peers))
			if err != nil {
				return nil, err
			}
			rib.Entries = append(rib.Entries, entries...)
		}
	}
}

func parsePeerIndex(b []byte) ([]astopo.ASN, error) {
	p := 0
	need := func(n int) error {
		if p+n > len(b) {
			return fmt.Errorf("bgpfeed: truncated PEER_INDEX_TABLE")
		}
		return nil
	}
	if err := need(6); err != nil {
		return nil, err
	}
	p += 4 // collector id
	nameLen := int(binary.BigEndian.Uint16(b[p : p+2]))
	p += 2
	if err := need(nameLen + 2); err != nil {
		return nil, err
	}
	p += nameLen
	count := int(binary.BigEndian.Uint16(b[p : p+2]))
	p += 2
	peers := make([]astopo.ASN, 0, count)
	for i := 0; i < count; i++ {
		if err := need(1); err != nil {
			return nil, err
		}
		ptype := b[p]
		p++
		ipLen := 4
		if ptype&0x01 != 0 {
			ipLen = 16
		}
		asLen := 2
		if ptype&peerTypeAS4 != 0 {
			asLen = 4
		}
		if err := need(4 + ipLen + asLen); err != nil {
			return nil, err
		}
		p += 4 + ipLen
		var as uint32
		if asLen == 4 {
			as = binary.BigEndian.Uint32(b[p : p+4])
		} else {
			as = uint32(binary.BigEndian.Uint16(b[p : p+2]))
		}
		p += asLen
		peers = append(peers, astopo.ASN(as))
	}
	return peers, nil
}

func parseRIBIPv4(b []byte, nPeers int) ([]RIBEntry, error) {
	p := 0
	need := func(n int) error {
		if p+n > len(b) {
			return fmt.Errorf("bgpfeed: truncated RIB record")
		}
		return nil
	}
	if err := need(5); err != nil {
		return nil, err
	}
	p += 4 // sequence
	plen := int(b[p])
	p++
	nBytes := (plen + 7) / 8
	if plen > 32 {
		return nil, fmt.Errorf("bgpfeed: bad IPv4 prefix length %d", plen)
	}
	if err := need(nBytes + 2); err != nil {
		return nil, err
	}
	var a4 [4]byte
	copy(a4[:], b[p:p+nBytes])
	p += nBytes
	prefix := netip.PrefixFrom(netip.AddrFrom4(a4), plen)
	count := int(binary.BigEndian.Uint16(b[p : p+2]))
	p += 2
	entries := make([]RIBEntry, 0, count)
	for i := 0; i < count; i++ {
		if err := need(8); err != nil {
			return nil, err
		}
		peerIdx := int(binary.BigEndian.Uint16(b[p : p+2]))
		if peerIdx >= nPeers {
			return nil, fmt.Errorf("bgpfeed: RIB entry references peer %d of %d", peerIdx, nPeers)
		}
		p += 6 // peer index + originated time
		attrLen := int(binary.BigEndian.Uint16(b[p : p+2]))
		p += 2
		if err := need(attrLen); err != nil {
			return nil, err
		}
		path, err := parseASPath(b[p : p+attrLen])
		if err != nil {
			return nil, err
		}
		p += attrLen
		entries = append(entries, RIBEntry{Prefix: prefix, PeerIndex: peerIdx, ASPath: path})
	}
	return entries, nil
}

func parseASPath(b []byte) ([]astopo.ASN, error) {
	p := 0
	for p < len(b) {
		if p+2 > len(b) {
			return nil, fmt.Errorf("bgpfeed: truncated attribute header")
		}
		flags := b[p]
		typ := b[p+1]
		p += 2
		var alen int
		if flags&0x10 != 0 { // extended length
			if p+2 > len(b) {
				return nil, fmt.Errorf("bgpfeed: truncated extended attribute length")
			}
			alen = int(binary.BigEndian.Uint16(b[p : p+2]))
			p += 2
		} else {
			if p+1 > len(b) {
				return nil, fmt.Errorf("bgpfeed: truncated attribute length")
			}
			alen = int(b[p])
			p++
		}
		if p+alen > len(b) {
			return nil, fmt.Errorf("bgpfeed: attribute overruns record")
		}
		if typ == bgpAttrASPath {
			return parseASPathValue(b[p : p+alen])
		}
		p += alen
	}
	return nil, fmt.Errorf("bgpfeed: RIB entry has no AS_PATH attribute")
}

func parseASPathValue(b []byte) ([]astopo.ASN, error) {
	var path []astopo.ASN
	p := 0
	for p < len(b) {
		if p+2 > len(b) {
			return nil, fmt.Errorf("bgpfeed: truncated AS_PATH segment")
		}
		segType := b[p]
		n := int(b[p+1])
		p += 2
		if segType != bgpASPathSeqSegment && segType != 1 { // allow AS_SET
			return nil, fmt.Errorf("bgpfeed: unknown AS_PATH segment type %d", segType)
		}
		if p+4*n > len(b) {
			return nil, fmt.Errorf("bgpfeed: AS_PATH segment overruns attribute")
		}
		for i := 0; i < n; i++ {
			path = append(path, astopo.ASN(binary.BigEndian.Uint32(b[p:p+4])))
			p += 4
		}
	}
	return path, nil
}

func be16(b []byte, v uint16) []byte { return append(b, byte(v>>8), byte(v)) }
func be32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}
