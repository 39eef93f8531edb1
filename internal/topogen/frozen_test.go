package topogen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"flatnet/internal/astopo"
)

// frozenHash hashes every array of a frozen graph in a fixed order, each
// element little-endian: the sorted node list, the provider, customer and
// peer offset rows, the adjacency arena, and the three link columns.
func frozenHash(g *astopo.Graph) string {
	f := g.Frozen()
	h := sha256.New()
	var buf [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(buf[:], v)
		h.Write(buf[:])
	}
	for _, a := range f.Nodes {
		put(uint32(a))
	}
	for _, row := range [][]int32{f.ProvOff, f.CustOff, f.PeerOff, f.Arena} {
		for _, v := range row {
			put(uint32(v))
		}
	}
	for _, col := range [][]astopo.ASN{f.LinkA, f.LinkB} {
		for _, a := range col {
			put(uint32(a))
		}
	}
	for _, r := range f.LinkRel {
		h.Write([]byte{byte(r)})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// metaHash hashes a world's dense annotation table in a fixed order, each
// element little-endian: classes, home cities, the PoP offsets and arena,
// the name offsets and the name bytes.
func metaHash(m *ASMeta) string {
	h := sha256.New()
	var buf [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(buf[:], v)
		h.Write(buf[:])
	}
	for _, c := range m.Class {
		h.Write([]byte{byte(c)})
	}
	for _, c := range m.Home {
		put(uint32(c))
	}
	for _, v := range m.PoPOff {
		put(uint32(v))
	}
	for _, c := range m.PoPArena {
		put(uint32(c))
	}
	for _, v := range m.NameOff {
		put(uint32(v))
	}
	h.Write(m.NameBlob)
	return hex.EncodeToString(h.Sum(nil))
}

// ixpHash hashes a world's exchanges in order, each value little-endian:
// the city, the member count and the members in join order.
func ixpHash(ixps []IXP) string {
	h := sha256.New()
	var buf [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(buf[:], v)
		h.Write(buf[:])
	}
	for _, x := range ixps {
		put(uint32(x.City))
		put(uint32(len(x.Members)))
		for _, a := range x.Members {
			put(uint32(a))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// readGolden reads testdata/frozen.sha256 into row name -> hash, as
// sha256sum prints them.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile("testdata/frozen.sha256")
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	fields := strings.Fields(string(raw))
	for i := 0; i+1 < len(fields); i += 2 {
		want[fields[i+1]] = fields[i]
	}
	return want
}

// TestGeneratedBytesMatchGolden pins the generator's output at the CLI's
// default scale and at the paper's scale 1.0: the frozen arrays and the
// annotation table of both presets must hash to the values in
// testdata/frozen.sha256, keyed "<preset>@<scale>" and
// "<preset>@<scale>/meta". A change to the generator's RNG draw order,
// its duplicate-link check or Freeze's node numbering and row order moves
// these bytes; a change that moves them on purpose updates the golden in
// the same commit.
func TestGeneratedBytesMatchGolden(t *testing.T) {
	want := readGolden(t)
	for _, scale := range []float64{0.04987, 1.0} {
		for _, spec := range []Spec{Internet2020(scale), Internet2015(scale)} {
			in, err := Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			row := fmt.Sprintf("%s@%g", spec.Name, scale)
			if got := frozenHash(in.Graph); got != want[row] {
				t.Errorf("%s: frozen graph hashes to %s, golden %q", row, got, want[row])
			}
			if got := metaHash(in.Meta); got != want[row+"/meta"] {
				t.Errorf("%s: annotation table hashes to %s, golden %q", row, got, want[row+"/meta"])
			}
		}
	}
}

// TestTimelineBytesMatchGolden pins every evolved year of the timeline at
// the CLI's default scale: one fold from the 2015 preset through 2025,
// each year's frozen graph, annotation table and exchange member lists
// hashed against the rows "evolved-<year>@0.04987" (and its "/meta" and
// "/ixps") of testdata/frozen.sha256. The evolved 2020 world is not the
// 2020 preset's, hence the prefix. A growth step that moves one RNG draw,
// link or membership moves these bytes.
func TestTimelineBytesMatchGolden(t *testing.T) {
	want := readGolden(t)
	const scale = 0.04987
	in, err := Generate(Internet2015(scale))
	if err != nil {
		t.Fatal(err)
	}
	for y := TimelineFirstYear + 1; y <= TimelineLastYear; y++ {
		d, err := EvolveStep(in, y, scale)
		if err != nil {
			t.Fatalf("year %d: %v", y, err)
		}
		if in, err = ApplyDelta(in, d); err != nil {
			t.Fatalf("year %d: %v", y, err)
		}
		row := fmt.Sprintf("evolved-%d@%g", y, scale)
		for _, c := range []struct{ key, got string }{
			{row, frozenHash(in.Graph)},
			{row + "/meta", metaHash(in.Meta)},
			{row + "/ixps", ixpHash(in.IXPs)},
		} {
			if c.got != want[c.key] {
				t.Errorf("%s hashes to %s, golden %q", c.key, c.got, want[c.key])
			}
		}
	}
}
