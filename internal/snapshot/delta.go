package snapshot

// Delta snapshots: instead of persisting a full world for every year of a
// timeline, adjacent years are stored as one base world plus a chain of
// growth deltas (topogen.GrowthDelta). A delta file reuses the v2
// container — magic, version, scale, CRC-guarded section table — with a
// single sectDelta section, so the existing sniffing, integrity, and
// info-labelling machinery applies unchanged. Applying the delta is
// deterministic (topogen.ApplyDelta), and the recorded base/result world
// hashes make application fail closed: a delta never silently lands on
// the wrong world or yields a world other than the one it promised.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"flatnet/internal/astopo"
	"flatnet/internal/geo"
	"flatnet/internal/topogen"
)

// ErrIsDelta marks an attempt to open a delta snapshot as a world
// snapshot. Callers distinguish it with errors.Is and route the file to
// ReadDelta instead.
var ErrIsDelta = errors.New("snapshot: file is a delta, not a world")

// Delta is a stored growth step between two adjacent worlds.
type Delta struct {
	// FromYear/ToYear and Scale identify the step; they duplicate the
	// growth payload's own fields so mismatches are detectable.
	FromYear, ToYear int
	Scale            float64
	// BaseHash and ResultHash are the world hashes (cluster.DatasetHash)
	// of the world the delta applies to and the world it must produce.
	// The codec treats them as opaque strings; appliers enforce them.
	BaseHash, ResultHash string
	// Growth is the structural change set.
	Growth *topogen.GrowthDelta
}

// DeltaInfo is the cheap, payload-free view of a delta file's lineage, as
// surfaced by ReadInfo.
type DeltaInfo struct {
	FromYear, ToYear     int
	BaseHash, ResultHash string
}

// EncodeDelta writes d to w as a single-section v2 snapshot file.
func EncodeDelta(w io.Writer, d *Delta) error {
	if !hostLE {
		return fmt.Errorf("snapshot: v2 format requires a little-endian host")
	}
	if d.Growth == nil {
		return fmt.Errorf("snapshot: delta has no growth payload")
	}
	if d.FromYear != d.Growth.FromYear || d.ToYear != d.Growth.ToYear || d.Scale != d.Growth.Scale {
		return fmt.Errorf("snapshot: delta header %d→%d@%g disagrees with growth payload %d→%d@%g",
			d.FromYear, d.ToYear, d.Scale, d.Growth.FromYear, d.Growth.ToYear, d.Growth.Scale)
	}
	e := &enc{b: new(bytes.Buffer)}
	// Lineage first, so ReadInfo can peek it from the payload front.
	e.u32(uint32(d.FromYear))
	e.u32(uint32(d.ToYear))
	e.str(d.BaseHash)
	e.str(d.ResultHash)
	e.f64(d.Scale)
	g := d.Growth
	e.u32(uint32(len(g.NewASes)))
	for _, a := range g.NewASes {
		e.asn(a.ASN)
		e.u8(uint8(a.Class))
		e.i32(int32(a.Home))
	}
	encodeLinks := func(links []astopo.Link) {
		e.u32(uint32(len(links)))
		for _, l := range links {
			e.asn(l.A)
			e.asn(l.B)
			e.u8(uint8(l.Rel))
		}
	}
	encodeLinks(g.RemovedLinks)
	encodeLinks(g.AddedLinks)
	e.u32(uint32(len(g.IXPJoins)))
	for _, j := range g.IXPJoins {
		e.i32(j.IXP)
		e.asn(j.Member)
	}
	e.u32(uint32(len(g.NewIXPs)))
	for _, x := range g.NewIXPs {
		e.i32(int32(x.City))
		e.u32(uint32(len(x.Members)))
		for _, m := range x.Members {
			e.asn(m)
		}
	}
	payload := e.b.Bytes()

	headerEnd := uint64(v2HeaderLen + v2EntryLen + 4)
	off := (headerEnd + 7) &^ 7
	header := make([]byte, off)
	copy(header, magic[:])
	binary.LittleEndian.PutUint32(header[8:], Version)
	binary.LittleEndian.PutUint64(header[12:], math.Float64bits(d.Scale))
	binary.LittleEndian.PutUint32(header[20:], 1)
	ent := header[v2HeaderLen:]
	binary.LittleEndian.PutUint32(ent[0:], uint32(sectDelta))
	binary.LittleEndian.PutUint32(ent[4:], uint32(d.ToYear))
	binary.LittleEndian.PutUint64(ent[8:], off)
	binary.LittleEndian.PutUint64(ent[16:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(ent[24:], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(header[headerEnd-4:], crc32.ChecksumIEEE(header[:headerEnd-4]))

	bw := bufio.NewWriter(w)
	if _, err := bw.Write(header); err != nil {
		return err
	}
	if _, err := bw.Write(payload); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteDeltaFile writes the delta atomically (tmp + rename), mirroring
// WriteFile.
func WriteDeltaFile(path string, d *Delta) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := EncodeDelta(f, d); err != nil {
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

// ReadDeltaFile reads and decodes the delta snapshot at path.
func ReadDeltaFile(path string) (*Delta, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeDelta(raw)
}

// DecodeDelta decodes a delta snapshot, failing closed on anything
// unexpected: wrong magic or version, a section table that is not exactly
// one delta section, checksum mismatches, truncation, or trailing bytes.
func DecodeDelta(raw []byte) (*Delta, error) {
	if !hostLE {
		return nil, fmt.Errorf("snapshot: v2 format requires a little-endian host")
	}
	if err := checkMagicVersion(raw); err != nil {
		return nil, err
	}
	headerEnd := v2HeaderLen + v2EntryLen + 4
	if len(raw) < headerEnd {
		return nil, fmt.Errorf("snapshot: truncated delta: %d bytes", len(raw))
	}
	if n := binary.LittleEndian.Uint32(raw[20:24]); n != 1 {
		return nil, fmt.Errorf("snapshot: delta file must hold exactly one section, has %d", n)
	}
	if got, want := crc32.ChecksumIEEE(raw[:headerEnd-4]), binary.LittleEndian.Uint32(raw[headerEnd-4:headerEnd]); got != want {
		return nil, fmt.Errorf("snapshot: header checksum mismatch: computed %#x, stored %#x", got, want)
	}
	ent := raw[v2HeaderLen:]
	kind := sectKind(binary.LittleEndian.Uint32(ent[0:]))
	year := int(binary.LittleEndian.Uint32(ent[4:]))
	off := binary.LittleEndian.Uint64(ent[8:])
	length := binary.LittleEndian.Uint64(ent[16:])
	crc := binary.LittleEndian.Uint32(ent[24:])
	if kind != sectDelta {
		return nil, fmt.Errorf("snapshot: file is a %s snapshot, not a delta", kind)
	}
	if off%8 != 0 || off < uint64(headerEnd) || off > uint64(len(raw)) || length > uint64(len(raw))-off {
		return nil, fmt.Errorf("snapshot: delta section spans [%d,%d) outside file of %d bytes", off, off+length, len(raw))
	}
	for _, b := range raw[headerEnd:off] {
		if b != 0 {
			return nil, fmt.Errorf("snapshot: nonzero padding before delta section")
		}
	}
	if off+length != uint64(len(raw)) {
		return nil, fmt.Errorf("snapshot: %d trailing bytes after delta section", uint64(len(raw))-(off+length))
	}
	payload := raw[off : off+length]
	if got := crc32.ChecksumIEEE(payload); got != crc {
		return nil, fmt.Errorf("snapshot: delta section checksum mismatch: computed %#x, stored %#x", got, crc)
	}

	d := &dec{buf: payload}
	out := &Delta{Growth: &topogen.GrowthDelta{}}
	out.FromYear = int(d.u32())
	out.ToYear = int(d.u32())
	out.BaseHash = d.str()
	out.ResultHash = d.str()
	out.Scale = d.f64()
	g := out.Growth
	g.FromYear, g.ToYear, g.Scale = out.FromYear, out.ToYear, out.Scale
	if n := d.count(); n > 0 {
		g.NewASes = make([]topogen.NewAS, n)
		for i := range g.NewASes {
			g.NewASes[i].ASN = d.asn()
			g.NewASes[i].Class = topogen.ASClass(d.u8())
			g.NewASes[i].Home = geo.CityID(d.i32())
		}
	}
	decodeLinks := func() []astopo.Link {
		n := d.count()
		if n == 0 {
			return nil
		}
		links := make([]astopo.Link, n)
		for i := range links {
			links[i].A = d.asn()
			links[i].B = d.asn()
			links[i].Rel = astopo.Rel(d.u8())
		}
		return links
	}
	g.RemovedLinks = decodeLinks()
	g.AddedLinks = decodeLinks()
	if n := d.count(); n > 0 {
		g.IXPJoins = make([]topogen.IXPJoin, n)
		for i := range g.IXPJoins {
			g.IXPJoins[i].IXP = d.i32()
			g.IXPJoins[i].Member = d.asn()
		}
	}
	if n := d.count(); n > 0 {
		g.NewIXPs = make([]topogen.NewIXP, n)
		for i := range g.NewIXPs {
			g.NewIXPs[i].City = geo.CityID(d.i32())
			m := d.count()
			g.NewIXPs[i].Members = make([]astopo.ASN, m)
			for j := range g.NewIXPs[i].Members {
				g.NewIXPs[i].Members[j] = d.asn()
			}
		}
	}
	if d.err != nil {
		return nil, fmt.Errorf("snapshot: delta payload: %w", d.err)
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("snapshot: delta payload: %d trailing bytes", len(d.buf)-d.off)
	}
	if year != out.ToYear {
		return nil, fmt.Errorf("snapshot: delta payload years %d→%d disagree with table year %d", out.FromYear, out.ToYear, year)
	}
	if out.FromYear >= out.ToYear {
		return nil, fmt.Errorf("snapshot: delta years %d→%d are not increasing", out.FromYear, out.ToYear)
	}
	if s := math.Float64frombits(binary.LittleEndian.Uint64(raw[12:20])); s != out.Scale {
		return nil, fmt.Errorf("snapshot: delta payload scale %g disagrees with header scale %g", out.Scale, s)
	}
	return out, nil
}
