// Package snapshot persists a generated world — each year's topology, AS
// metadata, IXPs and population model — as one versioned binary blob, so a
// later process can skip regeneration entirely and cold-start in
// milliseconds. What is derived from a world (address plans, rDNS corpora,
// traceroute campaigns) is not stored: it is a deterministic function of
// the world, rebuilt on demand by whoever reads it.
//
// Version 2 is a zero-copy format: every hot array (the frozen CSR topology
// arena, link columns, dense per-AS metadata, population columns) is laid
// out 8-byte-aligned in the file and served directly from an mmap'd region
// without decoding — see Open and Reader. Only the small pointer-shaped
// world section (the spec's profiles, tier sets, named networks) is
// decoded. Loading therefore costs O(pages touched), not O(world size).
//
// The codec fails closed — a wrong magic, an unsupported version, an
// unknown section kind, a truncated stream, a misaligned or overlapping
// section table, or a checksum mismatch all abort the load with an error
// rather than yielding a partly decoded world. One function, parseTable,
// checks that framing for world files, delta files and ReadInfo alike.
// Integrity is per section: a header CRC covers the section table eagerly;
// world sections are checked when decoded at open; mmap-served hot sections
// are checked by Verify (the `-verify` flag), so the zero-copy load path
// never has to touch every page.
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
	"os"
	"sort"

	"flatnet/internal/astopo"
	"flatnet/internal/population"
	"flatnet/internal/topogen"
)

// Version is the schema version, the only one readers accept: the payload
// encoding is positional, so there is no safe way to skip unknown fields
// within a section.
const Version = 2

var magic = [8]byte{'F', 'L', 'A', 'T', 'S', 'N', 'A', 'P'}

// World is everything a snapshot carries, keyed by preset year: the input
// to Write. A year may lack a population model — Write encodes what is
// present — and a Reader serves back whatever the file holds.
type World struct {
	Scale     float64
	Internets map[int]*topogen.Internet
	Pops      map[int]*population.Model
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
// name.
type SectionInfo struct {
	Label  string
	Length uint64
	Year   int
}

// Write encodes the world to w in the current (v2) format. Map iteration
// order never leaks into the output: all keys are sorted, so two equal
// worlds produce identical bytes.
func Write(w io.Writer, world *World) error {
	return writeV2(w, world)
}

// WriteFile writes the snapshot to path atomically: a crash never leaves a
// half-written snapshot in place. Every byte written to the file is also
// written to each tee writer, in order: a hash there digests the file
// without reading it back.
func WriteFile(path string, world *World, tee ...io.Writer) error {
	return writeAtomic(path, func(w io.Writer) error {
		if len(tee) > 0 {
			w = io.MultiWriter(append([]io.Writer{w}, tee...)...)
		}
		return Write(w, world)
	})
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
// DecodeDelta check those. A delta's lineage is read from the front of its
// payload.
func ReadInfo(raw []byte) (*Info, error) {
	scale, entries, err := parseTable(raw)
	if err != nil {
		return nil, err
	}
	info := &Info{Version: Version, Scale: scale, Sections: make([]SectionInfo, len(entries))}
	for i, e := range entries {
		si := &info.Sections[i]
		*si = SectionInfo{Label: e.kind.String(), Length: e.length, Year: e.year}
		if e.kind == sectDelta {
			d := &dec{buf: raw[e.off : e.off+e.length]}
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

type dec struct {
	buf []byte
	off int
	err error
}

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
