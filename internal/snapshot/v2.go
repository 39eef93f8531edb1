package snapshot

// The version 2 format: a section table up front (kind, year, offset,
// length, CRC per entry, the whole table guarded by a header CRC) followed
// by 8-byte-aligned payloads. Hot payloads — the frozen CSR topology, link
// columns, dense per-AS metadata, population columns — are raw host-endian
// arrays written with a single cast and served back the same way from an
// mmap'd file, so loading touches O(pages used) instead of decoding the
// world. The one cold payload per year, the world section (spec, tier sets,
// named networks), uses a field-by-field encoding and is decoded at open.
//
// Integrity: parseTable checks the framing and the header CRC, and the
// world sections' CRCs are checked, on every open; hot array sections are
// checked only by Verify, because checksumming them on open would touch
// every page and forfeit the zero-copy win. Offset arrays inside hot
// sections are still shape- and monotonicity-validated on open, so a
// corrupted snapshot without Verify fails closed or returns wrong numbers —
// it never indexes out of bounds.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"sort"
	"unsafe"

	"flatnet/internal/astopo"
	"flatnet/internal/geo"
	"flatnet/internal/mmap"
	"flatnet/internal/population"
	"flatnet/internal/topogen"
)

// sectKind identifies a v2 section's payload. The zero value is invalid so
// zeroed corruption is caught structurally as well as by the CRCs.
type sectKind uint32

const (
	// Cold per-year state: spec, tier sets, named networks.
	sectWorld sectKind = 1
	// Hot topology arrays (astopo.Frozen).
	sectNodes    sectKind = 2 // []ASN, sorted
	sectRowOffs  sectKind = 3 // provider, customer, peer offsets: 3×(n+1) int32
	sectArena    sectKind = 4 // CSR adjacency arena: 2m int32
	sectLinkEnds sectKind = 5 // link columns A then B: 2m ASN
	sectLinkRel  sectKind = 6 // link relationships: m int8
	// Hot per-AS metadata arrays (topogen.ASMeta).
	sectClass    sectKind = 7  // n ASClass bytes
	sectHome     sectKind = 8  // n CityID int32
	sectPoPOff   sectKind = 9  // n+1 int32
	sectPoPArena sectKind = 10 // CityID int32
	sectNameOff  sectKind = 11 // n+1 int32
	sectNameBlob sectKind = 12 // raw name bytes
	// IXPs: cities then member offsets (2k+1 int32), and the member arena.
	sectIXPTable   sectKind = 13
	sectIXPMembers sectKind = 14 // []ASN
	// Hot population columns, parallel to sectNodes.
	sectPopTypes sectKind = 15 // n ASType bytes
	sectPopUsers sectKind = 16 // total float64, then n float64
	// Retired: address plans, rDNS corpora and trace campaigns, which are
	// derived from a world and no longer stored. The kinds stay reserved,
	// never reused, and parseTable refuses a file that carries one.
	sectPlan   sectKind = 17
	sectRDNS   sectKind = 18
	sectTraces sectKind = 19
	// A growth delta between two adjacent worlds (see delta.go). Lives in
	// its own file: a snapshot either carries worlds or one delta, never
	// both.
	sectDelta sectKind = 20
)

func (k sectKind) String() string {
	switch k {
	case sectWorld:
		return "world"
	case sectNodes:
		return "nodes"
	case sectRowOffs:
		return "row-offsets"
	case sectArena:
		return "adjacency-arena"
	case sectLinkEnds:
		return "link-ends"
	case sectLinkRel:
		return "link-rels"
	case sectClass:
		return "as-class"
	case sectHome:
		return "as-home"
	case sectPoPOff:
		return "pop-offsets"
	case sectPoPArena:
		return "pop-arena"
	case sectNameOff:
		return "name-offsets"
	case sectNameBlob:
		return "name-blob"
	case sectIXPTable:
		return "ixp-table"
	case sectIXPMembers:
		return "ixp-members"
	case sectPopTypes:
		return "pop-types"
	case sectPopUsers:
		return "pop-users"
	case sectPlan:
		return "plan"
	case sectRDNS:
		return "rdns"
	case sectTraces:
		return "traces"
	case sectDelta:
		return "delta"
	}
	return fmt.Sprintf("kind(%d)", uint32(k))
}

func knownSectKind(k sectKind) bool { return k >= sectWorld && k <= sectDelta }

func retiredSectKind(k sectKind) bool { return k >= sectPlan && k <= sectTraces }

const (
	v2HeaderLen = 8 + 4 + 8 + 4     // magic, version, scale, nsect
	v2EntryLen  = 4 + 4 + 8 + 8 + 4 // kind, year, off, len, crc
)

// hostLE reports whether this machine is little-endian. Hot sections are
// raw host-endian arrays, so the format is only read and written on
// little-endian hosts (every supported target today).
var hostLE = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// rawBytes reinterprets a scalar slice as its underlying bytes, in place.
func rawBytes[T any](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(s[0])))
}

// castSlice reinterprets payload bytes as a scalar slice without copying.
// If the bytes happen to be misaligned for T (possible only on the
// read-into-heap fallback path), it copies into fresh memory instead.
func castSlice[T any](b []byte) ([]T, error) {
	var z T
	sz := int(unsafe.Sizeof(z))
	if len(b)%sz != 0 {
		return nil, fmt.Errorf("length %d is not a multiple of %d", len(b), sz)
	}
	n := len(b) / sz
	if n == 0 {
		return nil, nil
	}
	p := unsafe.SliceData(b)
	if uintptr(unsafe.Pointer(p))%uintptr(unsafe.Alignof(z)) != 0 {
		out := make([]T, n)
		copy(rawBytes(out), b)
		return out, nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(p)), n), nil
}

// ---- writer ----

type v2sect struct {
	kind   sectKind
	year   uint32
	chunks [][]byte
}

func (s *v2sect) size() uint64 {
	var n uint64
	for _, c := range s.chunks {
		n += uint64(len(c))
	}
	return n
}

func (s *v2sect) crc() uint32 {
	h := crc32.NewIEEE()
	for _, c := range s.chunks {
		h.Write(c)
	}
	return h.Sum32()
}

func writeV2(w io.Writer, world *World) error {
	var sections []v2sect
	add := func(kind sectKind, year int, chunks ...[]byte) {
		sections = append(sections, v2sect{kind: kind, year: uint32(year), chunks: chunks})
	}
	for _, year := range sortedYears(world.Pops) {
		if world.Internets[year] == nil {
			return fmt.Errorf("snapshot: population for year %d has no internet", year)
		}
	}
	for _, year := range sortedYears(world.Internets) {
		in := world.Internets[year]
		if in.Meta == nil {
			return fmt.Errorf("snapshot: internet %d has no metadata table", year)
		}
		f := in.Graph.Frozen()
		e := &enc{b: new(bytes.Buffer)}
		e.u32(uint32(year))
		encodeSpec(e, &in.Spec)
		encodeASSet(e, in.Tier1)
		encodeASSet(e, in.Tier2)
		encodeNamedASNs(e, in.Clouds)
		encodeNamedASNs(e, in.Hypergiants)
		add(sectWorld, year, e.b.Bytes())
		add(sectNodes, year, rawBytes(f.Nodes))
		add(sectRowOffs, year, rawBytes(f.ProvOff), rawBytes(f.CustOff), rawBytes(f.PeerOff))
		add(sectArena, year, rawBytes(f.Arena))
		add(sectLinkEnds, year, rawBytes(f.LinkA), rawBytes(f.LinkB))
		add(sectLinkRel, year, rawBytes(f.LinkRel))
		meta := in.Meta
		add(sectClass, year, rawBytes(meta.Class))
		add(sectHome, year, rawBytes(meta.Home))
		add(sectPoPOff, year, rawBytes(meta.PoPOff))
		add(sectPoPArena, year, rawBytes(meta.PoPArena))
		add(sectNameOff, year, rawBytes(meta.NameOff))
		add(sectNameBlob, year, meta.NameBlob)
		k := len(in.IXPs)
		tbl := make([]int32, 2*k+1)
		var nMembers int
		for _, x := range in.IXPs {
			nMembers += len(x.Members)
		}
		members := make([]astopo.ASN, 0, nMembers)
		for i, x := range in.IXPs {
			tbl[i] = int32(x.City)
			tbl[k+i] = int32(len(members))
			members = append(members, x.Members...)
		}
		tbl[2*k] = int32(len(members))
		add(sectIXPTable, year, rawBytes(tbl))
		add(sectIXPMembers, year, rawBytes(members))
		if pop := world.Pops[year]; pop != nil {
			asns, types, users, total := pop.Dense()
			if !slices.Equal(asns, f.Nodes) {
				return fmt.Errorf("snapshot: population for year %d is not aligned with its graph", year)
			}
			head := make([]byte, 8)
			binary.LittleEndian.PutUint64(head, math.Float64bits(total))
			add(sectPopTypes, year, rawBytes(types))
			add(sectPopUsers, year, head, rawBytes(users))
		}
	}
	return writeSections(w, world.Scale, sections)
}

// writeSections lays out one container: the header, the section table with
// each payload's CRC, the header CRC, then the payloads 8-aligned and back
// to back with zeroed gaps, and nothing after the last payload. It is the
// only writer of the framing that parseTable checks.
func writeSections(w io.Writer, scale float64, sections []v2sect) error {
	if !hostLE {
		return fmt.Errorf("snapshot: v2 format requires a little-endian host")
	}
	headerEnd := uint64(v2HeaderLen + v2EntryLen*len(sections) + 4)
	pos := headerEnd
	offs := make([]uint64, len(sections))
	for i := range sections {
		pos = (pos + 7) &^ 7
		offs[i] = pos
		pos += sections[i].size()
	}

	header := make([]byte, headerEnd)
	copy(header, magic[:])
	binary.LittleEndian.PutUint32(header[8:], Version)
	binary.LittleEndian.PutUint64(header[12:], math.Float64bits(scale))
	binary.LittleEndian.PutUint32(header[20:], uint32(len(sections)))
	for i := range sections {
		ent := header[v2HeaderLen+i*v2EntryLen:]
		binary.LittleEndian.PutUint32(ent[0:], uint32(sections[i].kind))
		binary.LittleEndian.PutUint32(ent[4:], sections[i].year)
		binary.LittleEndian.PutUint64(ent[8:], offs[i])
		binary.LittleEndian.PutUint64(ent[16:], sections[i].size())
		binary.LittleEndian.PutUint32(ent[24:], sections[i].crc())
	}
	binary.LittleEndian.PutUint32(header[headerEnd-4:], crc32.ChecksumIEEE(header[:headerEnd-4]))

	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(header); err != nil {
		return err
	}
	var pad [8]byte
	cur := headerEnd
	for i := range sections {
		if gap := offs[i] - cur; gap > 0 {
			if _, err := bw.Write(pad[:gap]); err != nil {
				return err
			}
			cur += gap
		}
		for _, c := range sections[i].chunks {
			if _, err := bw.Write(c); err != nil {
				return err
			}
			cur += uint64(len(c))
		}
	}
	return bw.Flush()
}

// ---- reader ----

type v2entry struct {
	kind   sectKind
	year   int
	off    uint64
	length uint64
	crc    uint32
}

// Reader serves a v2 snapshot from its raw bytes — normally an mmap'd
// file, so construction touches only the header, the world sections, and
// the offset arrays it validates, not the bulk payloads. Topology,
// metadata, and population columns are wired directly over the underlying
// memory with zero copies.
//
// The returned structures borrow the Reader's memory: they are valid until
// Close and must be treated as read-only. Reader methods are safe for
// concurrent use.
type Reader struct {
	m   *mmap.Mapping // nil when serving in-memory bytes
	raw []byte

	scale     float64
	entries   []v2entry
	internets map[int]*topogen.Internet
	pops      map[int]*population.Model
}

// Open maps the snapshot at path and wires a Reader over it. Time to
// first query is O(header + world sections); the bulk arrays fault in on
// demand.
func Open(path string) (*Reader, error) {
	m, err := mmap.Open(path)
	if err != nil {
		return nil, err
	}
	r, err := newReader(m.Data(), m)
	if err != nil {
		m.Close()
		return nil, err
	}
	return r, nil
}

// parseTable validates a container's framing and returns its scale and
// section table: magic and version, a table that fits the file and matches
// the header CRC, known kinds, and payloads that are 8-aligned, in bounds,
// in file order, separated by zero padding, and end the file. It checks no
// payload CRC; each caller decides which payloads to checksum and when.
func parseTable(raw []byte) (float64, []v2entry, error) {
	if !hostLE {
		return 0, nil, fmt.Errorf("snapshot: v2 format requires a little-endian host")
	}
	if len(raw) < len(magic)+4 {
		return 0, nil, fmt.Errorf("snapshot: truncated: %d bytes", len(raw))
	}
	if !bytes.Equal(raw[:len(magic)], magic[:]) {
		return 0, nil, fmt.Errorf("snapshot: bad magic %q", raw[:len(magic)])
	}
	switch v := binary.LittleEndian.Uint32(raw[8:12]); v {
	case Version:
	case 1:
		return 0, nil, fmt.Errorf("snapshot version 1 is no longer read; rebuild with `flatnet snapshot build`")
	default:
		return 0, nil, fmt.Errorf("snapshot: unsupported version %d (want %d)", v, Version)
	}
	if len(raw) < v2HeaderLen+4 {
		return 0, nil, fmt.Errorf("snapshot: truncated: %d bytes", len(raw))
	}
	nsect := int(binary.LittleEndian.Uint32(raw[20:24]))
	headerEnd := v2HeaderLen + v2EntryLen*nsect + 4
	if nsect < 0 || headerEnd > len(raw) {
		return 0, nil, fmt.Errorf("snapshot: truncated: %d sections do not fit %d bytes", nsect, len(raw))
	}
	if got, want := crc32.ChecksumIEEE(raw[:headerEnd-4]), binary.LittleEndian.Uint32(raw[headerEnd-4:headerEnd]); got != want {
		return 0, nil, fmt.Errorf("snapshot: header checksum mismatch: computed %#x, stored %#x", got, want)
	}
	entries := make([]v2entry, nsect)
	pos := uint64(headerEnd)
	for i := range entries {
		ent := raw[v2HeaderLen+i*v2EntryLen:]
		e := v2entry{
			kind:   sectKind(binary.LittleEndian.Uint32(ent[0:])),
			year:   int(binary.LittleEndian.Uint32(ent[4:])),
			off:    binary.LittleEndian.Uint64(ent[8:]),
			length: binary.LittleEndian.Uint64(ent[16:]),
			crc:    binary.LittleEndian.Uint32(ent[24:]),
		}
		if retiredSectKind(e.kind) {
			return 0, nil, fmt.Errorf("snapshot: section %d is a retired %s section (kind %d): plans, rDNS and traces are no longer stored; rebuild the snapshot with `flatnet snapshot build`",
				i, e.kind, uint32(e.kind))
		}
		if !knownSectKind(e.kind) {
			return 0, nil, fmt.Errorf("snapshot: unknown section kind %d", uint32(e.kind))
		}
		if e.off%8 != 0 {
			return 0, nil, fmt.Errorf("snapshot: section %d (%s) misaligned at offset %d", i, e.kind, e.off)
		}
		if e.off < pos || e.off > uint64(len(raw)) || e.length > uint64(len(raw))-e.off {
			return 0, nil, fmt.Errorf("snapshot: section %d (%s) spans [%d,%d) outside remaining [%d,%d)",
				i, e.kind, e.off, e.off+e.length, pos, len(raw))
		}
		for _, b := range raw[pos:e.off] {
			if b != 0 {
				return 0, nil, fmt.Errorf("snapshot: nonzero padding before section %d (%s)", i, e.kind)
			}
		}
		pos = e.off + e.length
		entries[i] = e
	}
	if pos != uint64(len(raw)) {
		return 0, nil, fmt.Errorf("snapshot: %d trailing bytes after last section", uint64(len(raw))-pos)
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(raw[12:20])), entries, nil
}

func newReader(raw []byte, m *mmap.Mapping) (*Reader, error) {
	scale, entries, err := parseTable(raw)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if e.kind == sectDelta {
			return nil, fmt.Errorf("%w; apply it to its base snapshot instead of opening it", ErrIsDelta)
		}
	}
	r := &Reader{
		m:         m,
		raw:       raw,
		scale:     scale,
		entries:   entries,
		internets: make(map[int]*topogen.Internet),
		pops:      make(map[int]*population.Model),
	}

	// Group per-year sections and wire each year's Internet.
	byYear := make(map[int]map[sectKind]int)
	for i, e := range r.entries {
		m := byYear[e.year]
		if m == nil {
			m = make(map[sectKind]int)
			byYear[e.year] = m
		}
		if _, dup := m[e.kind]; dup {
			return nil, fmt.Errorf("snapshot: duplicate %s section for year %d", e.kind, e.year)
		}
		m[e.kind] = i
	}
	for year, sects := range byYear {
		if err := r.wireYear(year, sects); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *Reader) payload(i int) []byte {
	e := r.entries[i]
	return r.raw[e.off : e.off+e.length]
}

// checkedPayload returns section i's bytes after verifying its CRC — used
// for the world sections, where decode cost dwarfs the checksum, and by
// Verify.
func (r *Reader) checkedPayload(i int) ([]byte, error) {
	e := r.entries[i]
	p := r.payload(i)
	if got := crc32.ChecksumIEEE(p); got != e.crc {
		return nil, fmt.Errorf("snapshot: section %d (%s) checksum mismatch: computed %#x, stored %#x",
			i, e.kind, got, e.crc)
	}
	return p, nil
}

// need returns the payload of a required section for a year.
func need(r *Reader, year int, sects map[sectKind]int, k sectKind) ([]byte, error) {
	i, ok := sects[k]
	if !ok {
		return nil, fmt.Errorf("snapshot: year %d is missing its %s section", year, k)
	}
	return r.payload(i), nil
}

// hotSlice casts a required section's payload to its array type.
func hotSlice[T any](r *Reader, year int, sects map[sectKind]int, k sectKind) ([]T, error) {
	p, err := need(r, year, sects, k)
	if err != nil {
		return nil, err
	}
	s, err := castSlice[T](p)
	if err != nil {
		return nil, fmt.Errorf("snapshot: year %d section %s: %w", year, k, err)
	}
	return s, nil
}

// checkOffsets validates a CSR offset array: monotonically nondecreasing
// within [0, arenaLen]. This is what keeps a corrupt un-Verified snapshot
// from indexing out of bounds at query time.
func checkOffsets(year int, k sectKind, offs []int32, arenaLen int) error {
	prev := int32(0)
	for _, o := range offs {
		if o < prev || int(o) > arenaLen {
			return fmt.Errorf("snapshot: year %d section %s: offsets not monotone within [0,%d]", year, k, arenaLen)
		}
		prev = o
	}
	return nil
}

func (r *Reader) wireYear(year int, sects map[sectKind]int) error {
	wi, ok := sects[sectWorld]
	if !ok {
		return fmt.Errorf("snapshot: year %d has topology sections but no world section", year)
	}
	cold, err := r.checkedPayload(wi)
	if err != nil {
		return err
	}
	d := &dec{buf: cold}
	if y := int(d.u32()); y != year {
		return fmt.Errorf("snapshot: world section year %d disagrees with table year %d", y, year)
	}
	in := &topogen.Internet{}
	decodeSpec(d, &in.Spec)
	in.Tier1 = decodeASSet(d)
	in.Tier2 = decodeASSet(d)
	in.Clouds = decodeNamedASNs(d)
	in.Hypergiants = decodeNamedASNs(d)
	if d.err != nil {
		return fmt.Errorf("snapshot: year %d world section: %w", year, d.err)
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("snapshot: year %d world section: %d trailing bytes", year, len(d.buf)-d.off)
	}

	nodes, err := hotSlice[astopo.ASN](r, year, sects, sectNodes)
	if err != nil {
		return err
	}
	n := len(nodes)
	rowOffs, err := hotSlice[int32](r, year, sects, sectRowOffs)
	if err != nil {
		return err
	}
	if len(rowOffs) != 3*(n+1) {
		return fmt.Errorf("snapshot: year %d row offsets hold %d entries, want %d", year, len(rowOffs), 3*(n+1))
	}
	arena, err := hotSlice[int32](r, year, sects, sectArena)
	if err != nil {
		return err
	}
	ends, err := hotSlice[astopo.ASN](r, year, sects, sectLinkEnds)
	if err != nil {
		return err
	}
	if len(ends)%2 != 0 {
		return fmt.Errorf("snapshot: year %d link ends hold %d entries, want an even count", year, len(ends))
	}
	m := len(ends) / 2
	rels, err := hotSlice[astopo.Rel](r, year, sects, sectLinkRel)
	if err != nil {
		return err
	}
	f := astopo.Frozen{
		Nodes:   nodes,
		ProvOff: rowOffs[: n+1 : n+1],
		CustOff: rowOffs[n+1 : 2*(n+1) : 2*(n+1)],
		PeerOff: rowOffs[2*(n+1):],
		Arena:   arena,
		LinkA:   ends[:m:m],
		LinkB:   ends[m:],
		LinkRel: rels,
	}
	for _, offs := range [][]int32{f.ProvOff, f.CustOff, f.PeerOff} {
		if err := checkOffsets(year, sectRowOffs, offs, len(arena)); err != nil {
			return err
		}
	}
	g, err := astopo.FromFrozen(f)
	if err != nil {
		return fmt.Errorf("snapshot: year %d: %w", year, err)
	}
	in.Graph = g

	meta := &topogen.ASMeta{}
	if meta.Class, err = hotSlice[topogen.ASClass](r, year, sects, sectClass); err != nil {
		return err
	}
	if meta.Home, err = hotSlice[geo.CityID](r, year, sects, sectHome); err != nil {
		return err
	}
	if meta.PoPOff, err = hotSlice[int32](r, year, sects, sectPoPOff); err != nil {
		return err
	}
	if meta.PoPArena, err = hotSlice[geo.CityID](r, year, sects, sectPoPArena); err != nil {
		return err
	}
	if meta.NameOff, err = hotSlice[int32](r, year, sects, sectNameOff); err != nil {
		return err
	}
	if meta.NameBlob, err = need(r, year, sects, sectNameBlob); err != nil {
		return err
	}
	if len(meta.Class) != n || len(meta.Home) != n || len(meta.PoPOff) != n+1 || len(meta.NameOff) != n+1 {
		return fmt.Errorf("snapshot: year %d metadata columns are not parallel to its %d nodes", year, n)
	}
	if err := checkOffsets(year, sectPoPOff, meta.PoPOff, len(meta.PoPArena)); err != nil {
		return err
	}
	if err := checkOffsets(year, sectNameOff, meta.NameOff, len(meta.NameBlob)); err != nil {
		return err
	}
	in.Meta = meta

	tbl, err := hotSlice[int32](r, year, sects, sectIXPTable)
	if err != nil {
		return err
	}
	if len(tbl)%2 != 1 {
		return fmt.Errorf("snapshot: year %d IXP table holds %d entries, want odd", year, len(tbl))
	}
	members, err := hotSlice[astopo.ASN](r, year, sects, sectIXPMembers)
	if err != nil {
		return err
	}
	k := (len(tbl) - 1) / 2
	cities, offs := tbl[:k], tbl[k:]
	if err := checkOffsets(year, sectIXPTable, offs, len(members)); err != nil {
		return err
	}
	in.IXPs = make([]topogen.IXP, k)
	for i := range in.IXPs {
		in.IXPs[i] = topogen.IXP{
			City:    geo.CityID(cities[i]),
			Members: members[offs[i]:offs[i+1]:offs[i+1]],
		}
	}
	r.internets[year] = in

	ti, hasTypes := sects[sectPopTypes]
	ui, hasUsers := sects[sectPopUsers]
	if hasTypes != hasUsers {
		return fmt.Errorf("snapshot: year %d has only one of its two population sections", year)
	}
	if hasTypes {
		types, err := castSlice[population.ASType](r.payload(ti))
		if err != nil {
			return fmt.Errorf("snapshot: year %d section %s: %w", year, sectPopTypes, err)
		}
		up := r.payload(ui)
		if len(up) < 8 {
			return fmt.Errorf("snapshot: year %d users section too short for its total", year)
		}
		total := math.Float64frombits(binary.LittleEndian.Uint64(up))
		users, err := castSlice[float64](up[8:])
		if err != nil {
			return fmt.Errorf("snapshot: year %d section %s: %w", year, sectPopUsers, err)
		}
		if len(types) != n || len(users) != n {
			return fmt.Errorf("snapshot: year %d population columns are not parallel to its %d nodes", year, n)
		}
		r.pops[year] = population.FromDense(nodes, types, users, total)
	}
	return nil
}

// Scale returns the generation scale recorded in the snapshot.
func (r *Reader) Scale() float64 { return r.scale }

// Mapped reports whether the snapshot is served from an OS file mapping.
func (r *Reader) Mapped() bool { return r.m != nil && r.m.Mapped() }

// Years lists the years with a topology, ascending.
func (r *Reader) Years() []int {
	years := make([]int, 0, len(r.internets))
	for y := range r.internets {
		years = append(years, y)
	}
	sort.Ints(years)
	return years
}

// Internet returns the year's topology, or nil. The graph and metadata
// borrow the snapshot's memory.
func (r *Reader) Internet(year int) *topogen.Internet { return r.internets[year] }

// Population returns the year's population model, or nil. The model
// borrows the snapshot's memory.
func (r *Reader) Population(year int) *population.Model { return r.pops[year] }

// Verify checksums every section, including the hot arrays the zero-copy
// load path deliberately skips. It reads the whole file (faulting every
// page in when mapped).
func (r *Reader) Verify() error {
	for i := range r.entries {
		if _, err := r.checkedPayload(i); err != nil {
			return err
		}
	}
	return nil
}

// Close releases the underlying mapping. Every structure handed out by
// the Reader — graphs, metadata, populations —
// borrows that memory and must not be used afterwards.
func (r *Reader) Close() error {
	if r.m == nil {
		return nil
	}
	return r.m.Close()
}
