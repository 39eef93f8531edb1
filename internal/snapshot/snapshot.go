// Package snapshot persists a fully built experiment world — generated
// topologies, population models, address plans, rDNS corpora, and traceroute
// campaigns — as one versioned binary blob, so a later process can skip
// regeneration entirely and cold-start in milliseconds.
//
// Version 2 is a zero-copy format: every hot array (the frozen CSR topology
// arena, link columns, dense per-AS metadata, population columns) is laid
// out 8-byte-aligned in the file and served directly from an mmap'd region
// without decoding — see Open and Reader. Only pointer-shaped state (the
// spec's profiles, tier sets, address plans, rDNS corpora, trace corpora)
// is decoded, lazily where possible. Loading therefore costs O(pages
// touched), not O(world size).
//
// The codec fails closed — a wrong magic, an unsupported version, an
// unknown section kind, a truncated stream, a misaligned or overlapping
// section table, or a checksum mismatch all abort the load with an error
// rather than yielding a partly decoded world. One function, parseTable,
// checks that framing for world files, delta files and ReadInfo alike.
// Integrity is per section: a header CRC covers the section table eagerly;
// cold sections are checked when decoded; mmap-served hot sections are
// checked by Verify (the `-verify` flag), so the zero-copy load path never
// has to touch every page. Verify also decodes every cold section, so a
// verified file is known to load in full.
//
// Version 2 layout (all integers little-endian; hot payloads are raw
// host-endian arrays, so the format is little-endian-host only):
//
//	magic    [8]byte  "FLATSNAP"
//	version  uint32   2
//	scale    float64  the generation scale the world was built at
//	nsect    uint32   number of sections
//	table    nsect ×  { kind uint32, year uint32, off uint64, len uint64, crc uint32 }
//	hcrc     uint32   IEEE CRC-32 of every preceding byte
//	payloads           8-aligned, zero-padded gaps, file ends at the last payload
//
// Version 2 is the only format read or written. A version 1 file (the
// eager stream format earlier builds wrote) is refused with an error that
// says to rebuild it.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/netip"
	"os"
	"sort"

	"flatnet/internal/astopo"
	"flatnet/internal/geo"
	"flatnet/internal/netdb"
	"flatnet/internal/population"
	"flatnet/internal/rdns"
	"flatnet/internal/topogen"
	"flatnet/internal/tracesim"
)

// Version is the schema version, the only one readers accept: the payload
// encoding is positional, so there is no safe way to skip unknown fields
// within a section.
const Version = 2

var magic = [8]byte{'F', 'L', 'A', 'T', 'S', 'N', 'A', 'P'}

// TraceKey identifies one cloud's traceroute campaign.
type TraceKey struct {
	Year  int
	Cloud string
	// VMs is the number of VM groups in the corpus.
	VMs int
}

// World is everything a snapshot carries, keyed by preset year: the input
// to Write. Any map may be partially populated — Write encodes what is
// present — and a Reader serves back whatever the file holds.
type World struct {
	Scale     float64
	Internets map[int]*topogen.Internet
	Pops      map[int]*population.Model
	Plans     map[int]*netdb.Plan
	RDNS      map[int]*rdns.Corpus
	Traces    map[TraceKey][][]tracesim.Traceroute
}

// Info describes a snapshot without decoding its payloads.
type Info struct {
	Version  uint32
	Scale    float64
	Sections []SectionInfo
	// Delta carries the lineage of a delta snapshot (see delta.go); nil
	// for world snapshots.
	Delta *DeltaInfo
}

// SectionInfo labels one section. Label is the human-readable section
// name. Cloud and VMs are set for traces sections only.
type SectionInfo struct {
	Label  string
	Length uint64
	Year   int
	Cloud  string
	VMs    int
}

// Write encodes the world to w in the current (v2) format. Map iteration
// order never leaks into the output: all keys are sorted, so two equal
// worlds produce identical bytes.
func Write(w io.Writer, world *World) error {
	return writeV2(w, world)
}

// WriteFile writes the snapshot to path atomically: a crash never leaves a
// half-written snapshot in place.
func WriteFile(path string, world *World) error {
	return writeAtomic(path, func(w io.Writer) error { return Write(w, world) })
}

// writeAtomic encodes to path+".tmp", then renames it over path, so a crash
// never leaves a half-written file in place.
func writeAtomic(path string, encode func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := encode(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// ReadInfo validates a world or delta file's framing (parseTable) and labels
// its sections without decoding payloads or checking their CRCs; Verify and
// DecodeDelta check those. Trace and delta labels are read from the front of
// their payloads.
func ReadInfo(raw []byte) (*Info, error) {
	scale, entries, err := parseTable(raw)
	if err != nil {
		return nil, err
	}
	info := &Info{Version: Version, Scale: scale, Sections: make([]SectionInfo, len(entries))}
	for i, e := range entries {
		si := &info.Sections[i]
		*si = SectionInfo{Label: e.kind.String(), Length: e.length, Year: e.year}
		payload := raw[e.off : e.off+e.length]
		switch e.kind {
		case sectTraces:
			key, err := traceLabel(payload)
			if err != nil {
				return nil, fmt.Errorf("snapshot: section %d label: %w", i, err)
			}
			si.Year, si.Cloud, si.VMs = key.Year, key.Cloud, key.VMs
		case sectDelta:
			d := &dec{buf: payload}
			lin := decodeLineage(d)
			if d.err != nil {
				return nil, fmt.Errorf("snapshot: section %d label: %w", i, d.err)
			}
			si.Year = lin.ToYear
			info.Delta = &lin
		}
	}
	return info, nil
}

func sortedYears[V any](m map[int]V) []int {
	years := make([]int, 0, len(m))
	for y := range m {
		years = append(years, y)
	}
	sort.Ints(years)
	return years
}

// ---- primitive encoder / decoder ----

type enc struct {
	b   *bytes.Buffer
	tmp [8]byte
}

func (e *enc) u8(v uint8) { e.b.WriteByte(v) }
func (e *enc) u32(v uint32) {
	binary.LittleEndian.PutUint32(e.tmp[:4], v)
	e.b.Write(e.tmp[:4])
}
func (e *enc) u64(v uint64) {
	binary.LittleEndian.PutUint64(e.tmp[:8], v)
	e.b.Write(e.tmp[:8])
}
func (e *enc) i32(v int32)      { e.u32(uint32(v)) }
func (e *enc) i64(v int64)      { e.u64(uint64(v)) }
func (e *enc) f64(v float64)    { e.u64(math.Float64bits(v)) }
func (e *enc) asn(a astopo.ASN) { e.u32(uint32(a)) }
func (e *enc) boolean(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.b.WriteString(s)
}

// addr encodes a netip.Addr as length-prefixed raw bytes (0 = invalid).
func (e *enc) addr(a netip.Addr) {
	if !a.IsValid() {
		e.u8(0)
		return
	}
	raw := a.AsSlice()
	e.u8(uint8(len(raw)))
	e.b.Write(raw)
}

func (e *enc) prefix(p netip.Prefix) {
	e.addr(p.Addr())
	e.u8(uint8(p.Bits() + 1)) // +1 so an invalid prefix's -1 encodes as 0
}

type dec struct {
	buf []byte
	off int
	err error
}

func (d *dec) ok() bool { return d.err == nil }

func (d *dec) fail() {
	if d.err == nil {
		d.err = io.ErrUnexpectedEOF
	}
}

func (d *dec) take(n int) []byte {
	if d.err != nil || n < 0 || n > len(d.buf)-d.off {
		d.fail()
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *dec) bytes(dst []byte) {
	if b := d.take(len(dst)); b != nil {
		copy(dst, b)
	}
}

func (d *dec) u8() uint8 {
	if b := d.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (d *dec) u32() uint32 {
	if b := d.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (d *dec) u64() uint64 {
	if b := d.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (d *dec) i32() int32      { return int32(d.u32()) }
func (d *dec) i64() int64      { return int64(d.u64()) }
func (d *dec) f64() float64    { return math.Float64frombits(d.u64()) }
func (d *dec) asn() astopo.ASN { return astopo.ASN(d.u32()) }
func (d *dec) boolean() bool   { return d.u8() != 0 }

func (d *dec) str() string {
	n := int(d.u32())
	if b := d.take(n); b != nil {
		return string(b)
	}
	return ""
}

// strShared decodes a string, returning want (no allocation) when the bytes
// match — the trace decoder uses it to share one cloud-name string across a
// whole corpus instead of allocating tens of thousands of copies.
func (d *dec) strShared(want string) string {
	n := int(d.u32())
	b := d.take(n)
	if b == nil {
		return ""
	}
	if string(b) == want { // compiler-optimized comparison, no alloc
		return want
	}
	return string(b)
}

// count reads a length prefix and sanity-checks it against the remaining
// bytes (each element needs at least one byte), so a corrupted count cannot
// drive a huge allocation before the truncation is noticed.
func (d *dec) count() int {
	n := int(d.u32())
	if n < 0 || n > len(d.buf)-d.off {
		d.fail()
		return 0
	}
	return n
}

func (d *dec) addr() netip.Addr {
	n := int(d.u8())
	if n == 0 {
		return netip.Addr{}
	}
	b := d.take(n)
	if b == nil {
		return netip.Addr{}
	}
	a, ok := netip.AddrFromSlice(b)
	if !ok {
		d.fail()
	}
	return a
}

func (d *dec) prefix() netip.Prefix {
	a := d.addr()
	bits := int(d.u8()) - 1
	if d.err != nil || !a.IsValid() {
		return netip.Prefix{}
	}
	return netip.PrefixFrom(a, bits)
}

// ---- internet ----

func encodeProfiles(e *enc, ps []topogen.Profile) {
	e.u32(uint32(len(ps)))
	for _, p := range ps {
		e.str(p.Name)
		e.asn(p.ASN)
		e.u8(uint8(p.Class))
		e.u32(uint32(p.ProviderCount))
		e.u32(uint32(p.Tier1Provs))
		e.u32(uint32(len(p.PreferredProviders)))
		for _, a := range p.PreferredProviders {
			e.asn(a)
		}
		e.f64(p.PeerTier1)
		e.f64(p.PeerTier2)
		e.f64(p.PeerTransit)
		e.f64(p.PeerAccess)
		e.f64(p.PeerContent)
		e.u32(uint32(p.PoPCount))
		e.boolean(p.Global)
	}
}

func decodeProfiles(d *dec) []topogen.Profile {
	n := d.count()
	ps := make([]topogen.Profile, n)
	for i := range ps {
		p := &ps[i]
		p.Name = d.str()
		p.ASN = d.asn()
		p.Class = topogen.ASClass(d.u8())
		p.ProviderCount = int(d.u32())
		p.Tier1Provs = int(d.u32())
		m := d.count()
		if m > 0 {
			p.PreferredProviders = make([]astopo.ASN, m)
			for j := range p.PreferredProviders {
				p.PreferredProviders[j] = d.asn()
			}
		}
		p.PeerTier1 = d.f64()
		p.PeerTier2 = d.f64()
		p.PeerTransit = d.f64()
		p.PeerAccess = d.f64()
		p.PeerContent = d.f64()
		p.PoPCount = int(d.u32())
		p.Global = d.boolean()
		if d.err != nil {
			return nil
		}
	}
	return ps
}

func sortedASNs[V any](m map[astopo.ASN]V) []astopo.ASN {
	keys := make([]astopo.ASN, 0, len(m))
	for a := range m {
		keys = append(keys, a)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func encodeASSet(e *enc, s astopo.ASSet) {
	e.u32(uint32(len(s)))
	for _, a := range sortedASNs(s) {
		e.asn(a)
	}
}

func decodeASSet(d *dec) astopo.ASSet {
	n := d.count()
	s := make(astopo.ASSet, n)
	for i := 0; i < n; i++ {
		s[d.asn()] = struct{}{}
	}
	return s
}

func encodeNamedASNs(e *enc, m map[string]astopo.ASN) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	e.u32(uint32(len(names)))
	for _, n := range names {
		e.str(n)
		e.asn(m[n])
	}
}

func decodeNamedASNs(d *dec) map[string]astopo.ASN {
	n := d.count()
	m := make(map[string]astopo.ASN, n)
	for i := 0; i < n; i++ {
		name := d.str()
		m[name] = d.asn()
	}
	return m
}

// encodeSpec writes the generation spec — the one pointer-shaped piece of
// an Internet that both format versions serialize field-by-field.
func encodeSpec(e *enc, sp *topogen.Spec) {
	e.str(sp.Name)
	e.i64(sp.Seed)
	e.u32(uint32(sp.NumASes))
	e.u32(uint32(sp.NumTransit))
	e.f64(sp.FracAccess)
	e.f64(sp.FracContent)
	e.u32(uint32(sp.NumIXPs))
	classes := make([]int, 0, len(sp.Openness))
	for c := range sp.Openness {
		classes = append(classes, int(c))
	}
	sort.Ints(classes)
	e.u32(uint32(len(classes)))
	for _, c := range classes {
		e.u8(uint8(c))
		e.f64(sp.Openness[topogen.ASClass(c)])
	}
	encodeProfiles(e, sp.Tier1)
	encodeProfiles(e, sp.Tier2)
	encodeProfiles(e, sp.Clouds)
	encodeProfiles(e, sp.Hypergiants)
}

func decodeSpec(d *dec, sp *topogen.Spec) {
	sp.Name = d.str()
	sp.Seed = d.i64()
	sp.NumASes = int(d.u32())
	sp.NumTransit = int(d.u32())
	sp.FracAccess = d.f64()
	sp.FracContent = d.f64()
	sp.NumIXPs = int(d.u32())
	nOpen := d.count()
	sp.Openness = make(map[topogen.ASClass]float64, nOpen)
	for i := 0; i < nOpen; i++ {
		c := topogen.ASClass(d.u8())
		sp.Openness[c] = d.f64()
	}
	sp.Tier1 = decodeProfiles(d)
	sp.Tier2 = decodeProfiles(d)
	sp.Clouds = decodeProfiles(d)
	sp.Hypergiants = decodeProfiles(d)
}

// ---- plan ----

func encodePlan(e *enc, year int, p *netdb.Plan) {
	e.u32(uint32(year))
	e.u32(uint32(len(p.ASPrefix)))
	for _, a := range sortedASNs(p.ASPrefix) {
		e.asn(a)
		e.prefix(p.ASPrefix[a])
	}
	e.u32(uint32(len(p.Extra)))
	for _, a := range sortedASNs(p.Extra) {
		e.asn(a)
		ps := p.Extra[a]
		e.u32(uint32(len(ps)))
		for _, pre := range ps {
			e.prefix(pre)
		}
	}
	e.u32(uint32(len(p.Infra)))
	for _, a := range sortedASNs(p.Infra) {
		e.asn(a)
		e.prefix(p.Infra[a])
	}
	e.u32(uint32(len(p.Lans)))
	for _, lan := range p.Lans {
		e.prefix(lan.Prefix)
		e.asn(lan.OperatorASN)
		e.boolean(lan.Announced)
		e.u32(uint32(len(lan.MemberAddr)))
		for _, a := range sortedASNs(lan.MemberAddr) {
			e.asn(a)
			e.addr(lan.MemberAddr[a])
		}
		stale := make([]netip.Addr, 0, len(lan.StaleEntries))
		for addr := range lan.StaleEntries {
			stale = append(stale, addr)
		}
		sort.Slice(stale, func(i, j int) bool { return stale[i].Compare(stale[j]) < 0 })
		e.u32(uint32(len(stale)))
		for _, addr := range stale {
			e.addr(addr)
			e.asn(lan.StaleEntries[addr])
		}
	}
	linkKeys := make([][2]astopo.ASN, 0, len(p.Links))
	for k := range p.Links {
		linkKeys = append(linkKeys, k)
	}
	sort.Slice(linkKeys, func(i, j int) bool {
		if linkKeys[i][0] != linkKeys[j][0] {
			return linkKeys[i][0] < linkKeys[j][0]
		}
		return linkKeys[i][1] < linkKeys[j][1]
	})
	e.u32(uint32(len(linkKeys)))
	for _, k := range linkKeys {
		num := p.Links[k]
		e.asn(k[0])
		e.asn(k[1])
		e.addr(num.AAddr)
		e.addr(num.BAddr)
		e.asn(num.Owner)
		e.i32(int32(num.IXP))
	}
}

func decodePlan(d *dec) (int, *netdb.Plan) {
	year := int(d.u32())
	p := &netdb.Plan{}
	n := d.count()
	p.ASPrefix = make(map[astopo.ASN]netip.Prefix, n)
	for i := 0; i < n; i++ {
		a := d.asn()
		p.ASPrefix[a] = d.prefix()
	}
	n = d.count()
	p.Extra = make(map[astopo.ASN][]netip.Prefix, n)
	for i := 0; i < n; i++ {
		a := d.asn()
		m := d.count()
		ps := make([]netip.Prefix, m)
		for j := range ps {
			ps[j] = d.prefix()
		}
		p.Extra[a] = ps
	}
	n = d.count()
	p.Infra = make(map[astopo.ASN]netip.Prefix, n)
	for i := 0; i < n; i++ {
		a := d.asn()
		p.Infra[a] = d.prefix()
	}
	n = d.count()
	p.Lans = make([]netdb.IXPLan, n)
	for i := range p.Lans {
		lan := &p.Lans[i]
		lan.Prefix = d.prefix()
		lan.OperatorASN = d.asn()
		lan.Announced = d.boolean()
		m := d.count()
		lan.MemberAddr = make(map[astopo.ASN]netip.Addr, m)
		for j := 0; j < m; j++ {
			a := d.asn()
			lan.MemberAddr[a] = d.addr()
		}
		m = d.count()
		lan.StaleEntries = make(map[netip.Addr]astopo.ASN, m)
		for j := 0; j < m; j++ {
			addr := d.addr()
			lan.StaleEntries[addr] = d.asn()
		}
	}
	n = d.count()
	p.Links = make(map[[2]astopo.ASN]netdb.LinkNumbering, n)
	for i := 0; i < n; i++ {
		var k [2]astopo.ASN
		k[0] = d.asn()
		k[1] = d.asn()
		var num netdb.LinkNumbering
		num.AAddr = d.addr()
		num.BAddr = d.addr()
		num.Owner = d.asn()
		num.IXP = int(d.i32())
		p.Links[k] = num
	}
	if d.err != nil {
		return year, nil
	}
	return year, p
}

// ---- rdns ----

func encodeRDNS(e *enc, year int, c *rdns.Corpus) {
	e.u32(uint32(year))
	e.u32(uint32(len(c.ByAS)))
	for _, a := range sortedASNs(c.ByAS) {
		e.asn(a)
		recs := c.ByAS[a]
		e.u32(uint32(len(recs)))
		for _, r := range recs {
			e.addr(r.Addr)
			e.str(r.Hostname)
		}
	}
	e.u32(uint32(len(c.Aliases)))
	for _, a := range sortedASNs(c.Aliases) {
		e.asn(a)
		groups := c.Aliases[a]
		e.u32(uint32(len(groups)))
		for _, g := range groups {
			e.u32(uint32(len(g)))
			for _, addr := range g {
				e.addr(addr)
			}
		}
	}
	e.u32(uint32(len(c.CoveredPoPs)))
	for _, a := range sortedASNs(c.CoveredPoPs) {
		e.asn(a)
		pops := c.CoveredPoPs[a]
		cities := make([]int, 0, len(pops))
		for c := range pops {
			cities = append(cities, int(c))
		}
		sort.Ints(cities)
		e.u32(uint32(len(cities)))
		for _, city := range cities {
			e.i32(int32(city))
			e.boolean(pops[geo.CityID(city)])
		}
	}
}

func decodeRDNS(d *dec) (int, *rdns.Corpus) {
	year := int(d.u32())
	c := &rdns.Corpus{}
	n := d.count()
	c.ByAS = make(map[astopo.ASN][]rdns.Record, n)
	for i := 0; i < n; i++ {
		a := d.asn()
		m := d.count()
		recs := make([]rdns.Record, m)
		for j := range recs {
			recs[j].Addr = d.addr()
			recs[j].Hostname = d.str()
		}
		c.ByAS[a] = recs
	}
	n = d.count()
	c.Aliases = make(map[astopo.ASN][][]netip.Addr, n)
	for i := 0; i < n; i++ {
		a := d.asn()
		m := d.count()
		groups := make([][]netip.Addr, m)
		for j := range groups {
			g := d.count()
			group := make([]netip.Addr, g)
			for k := range group {
				group[k] = d.addr()
			}
			groups[j] = group
		}
		c.Aliases[a] = groups
	}
	n = d.count()
	c.CoveredPoPs = make(map[astopo.ASN]map[geo.CityID]bool, n)
	for i := 0; i < n; i++ {
		a := d.asn()
		m := d.count()
		pops := make(map[geo.CityID]bool, m)
		for j := 0; j < m; j++ {
			city := geo.CityID(d.i32())
			pops[city] = d.boolean()
		}
		c.CoveredPoPs[a] = pops
	}
	if d.err != nil {
		return year, nil
	}
	return year, c
}

// ---- traces ----

func encodeTraces(e *enc, key TraceKey, tr [][]tracesim.Traceroute) {
	e.u32(uint32(key.Year))
	e.str(key.Cloud)
	e.u32(uint32(key.VMs))
	// Totals let the decoder allocate single arenas for all hops and path
	// entries of the corpus instead of two slices per traceroute.
	var totalHops, totalPath uint64
	for _, group := range tr {
		for i := range group {
			totalHops += uint64(len(group[i].Hops))
			totalPath += uint64(len(group[i].TruePath))
		}
	}
	e.u64(totalHops)
	e.u64(totalPath)
	e.u32(uint32(len(tr)))
	for _, group := range tr {
		e.u32(uint32(len(group)))
		for i := range group {
			t := &group[i]
			e.str(t.VM.Cloud)
			e.asn(t.VM.CloudASN)
			e.i32(int32(t.VM.City))
			e.u32(uint32(t.VM.Index))
			e.addr(t.Dst)
			e.asn(t.DstASN)
			e.u32(uint32(len(t.Hops)))
			for _, h := range t.Hops {
				e.i32(int32(h.TTL))
				e.addr(h.Addr)
				e.asn(h.TrueAS)
			}
			e.boolean(t.Reached)
			e.u32(uint32(len(t.TruePath)))
			for _, a := range t.TruePath {
				e.asn(a)
			}
			e.boolean(t.OnBestPath)
		}
	}
}

func decodeTraces(d *dec) (TraceKey, [][]tracesim.Traceroute) {
	var key TraceKey
	key.Year = int(d.u32())
	key.Cloud = d.str()
	key.VMs = int(d.u32())
	totalHops := d.u64()
	totalPath := d.u64()
	if d.err != nil || totalHops > uint64(len(d.buf)) || totalPath > uint64(len(d.buf)) {
		d.fail()
		return key, nil
	}
	hopArena := make([]tracesim.Hop, totalHops)
	pathArena := make([]astopo.ASN, totalPath)
	var hopOff, pathOff int
	n := d.count()
	tr := make([][]tracesim.Traceroute, n)
	for gi := range tr {
		m := d.count()
		group := make([]tracesim.Traceroute, m)
		for i := range group {
			t := &group[i]
			t.VM.Cloud = d.strShared(key.Cloud)
			t.VM.CloudASN = d.asn()
			t.VM.City = geo.CityID(d.i32())
			t.VM.Index = int(d.u32())
			t.Dst = d.addr()
			t.DstASN = d.asn()
			nh := d.count()
			if hopOff+nh > len(hopArena) {
				d.fail()
				return key, nil
			}
			hops := hopArena[hopOff : hopOff+nh : hopOff+nh]
			hopOff += nh
			for j := range hops {
				hops[j].TTL = int(d.i32())
				hops[j].Addr = d.addr()
				hops[j].TrueAS = d.asn()
			}
			if nh > 0 {
				t.Hops = hops
			}
			t.Reached = d.boolean()
			np := d.count()
			if pathOff+np > len(pathArena) {
				d.fail()
				return key, nil
			}
			path := pathArena[pathOff : pathOff+np : pathOff+np]
			pathOff += np
			for j := range path {
				path[j] = d.asn()
			}
			if np > 0 {
				t.TruePath = path
			}
			t.OnBestPath = d.boolean()
		}
		tr[gi] = group
	}
	return key, tr
}
