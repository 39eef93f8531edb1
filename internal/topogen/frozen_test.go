package topogen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
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

// TestGeneratedBytesMatchGolden pins the generator's output at the CLI's
// default scale: the frozen arrays of both presets must hash to the values
// in testdata/frozen.sha256. A change to the generator's RNG draw order,
// its duplicate-link check or Freeze's node numbering and row order moves
// these bytes; a change that moves them on purpose updates the golden in
// the same commit.
func TestGeneratedBytesMatchGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/frozen.sha256")
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string) // preset name -> hash, as sha256sum prints them
	fields := strings.Fields(string(raw))
	for i := 0; i+1 < len(fields); i += 2 {
		want[fields[i+1]] = fields[i]
	}
	const scale = 0.04987
	for _, spec := range []Spec{Internet2020(scale), Internet2015(scale)} {
		in, err := Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := frozenHash(in.Graph); got != want[spec.Name] {
			t.Errorf("Internet%s(%g): frozen graph hashes to %s, golden %q", spec.Name, scale, got, want[spec.Name])
		}
	}
}
