package snapshot

// Delta snapshots: instead of persisting a full world for every year of a
// timeline, adjacent years are stored as one base world plus a chain of
// growth deltas (topogen.GrowthDelta). A delta file reuses the v2
// container — magic, version, scale, CRC-guarded section table — with a
// single sectDelta section, written by writeSections and framing-checked
// by parseTable like any world file. Applying the delta is
// deterministic (topogen.ApplyDelta), and the recorded base/result world
// hashes make application fail closed: a delta never silently lands on
// the wrong world or yields a world other than the one it promised.

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"flatnet/internal/astopo"
	"flatnet/internal/geo"
	"flatnet/internal/topogen"
)

// ErrIsDelta marks an attempt to open a delta snapshot as a world
// snapshot. Callers distinguish it with errors.Is and route the file to
// DecodeDelta (or ReadDeltaFile) instead.
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
	return writeSections(w, d.Scale, []v2sect{{kind: sectDelta, year: uint32(d.ToYear), chunks: [][]byte{e.b.Bytes()}}})
}

// WriteDeltaFile writes the delta atomically, as WriteFile does a world.
func WriteDeltaFile(path string, d *Delta) error {
	return writeAtomic(path, func(w io.Writer) error { return EncodeDelta(w, d) })
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
	scale, entries, err := parseTable(raw)
	if err != nil {
		return nil, err
	}
	if len(entries) != 1 || entries[0].kind != sectDelta {
		return nil, fmt.Errorf("snapshot: file is not a delta: want exactly one delta section, have %d sections", len(entries))
	}
	ent := entries[0]
	payload := raw[ent.off : ent.off+ent.length]
	if got := crc32.ChecksumIEEE(payload); got != ent.crc {
		return nil, fmt.Errorf("snapshot: delta section checksum mismatch: computed %#x, stored %#x", got, ent.crc)
	}

	d := &dec{buf: payload}
	lin := decodeLineage(d)
	out := &Delta{
		FromYear: lin.FromYear, ToYear: lin.ToYear,
		BaseHash: lin.BaseHash, ResultHash: lin.ResultHash,
		Scale:  d.f64(),
		Growth: &topogen.GrowthDelta{},
	}
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
	if ent.year != out.ToYear {
		return nil, fmt.Errorf("snapshot: delta payload years %d→%d disagree with table year %d", out.FromYear, out.ToYear, ent.year)
	}
	if out.FromYear >= out.ToYear {
		return nil, fmt.Errorf("snapshot: delta years %d→%d are not increasing", out.FromYear, out.ToYear)
	}
	if scale != out.Scale {
		return nil, fmt.Errorf("snapshot: delta payload scale %g disagrees with header scale %g", out.Scale, scale)
	}
	return out, nil
}

// decodeLineage reads the lineage EncodeDelta writes at the front of a delta
// payload, which ReadInfo peeks without decoding the rest.
func decodeLineage(d *dec) DeltaInfo {
	lin := DeltaInfo{FromYear: int(d.u32()), ToYear: int(d.u32())}
	lin.BaseHash = d.str()
	lin.ResultHash = d.str()
	return lin
}
