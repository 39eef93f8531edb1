package astopo

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

const sampleSerial1 = `# source: flatnet test
# clique: 1 2
1|2|0
1|11|-1
2|12|-1
11|12|0
`

const sampleSerial2 = `# serial-2 sample
1|2|0|bgp
1|11|-1|bgp
11|12|0|mlp
`

func TestReadRelationshipsSerial1(t *testing.T) {
	g, err := ReadRelationships(strings.NewReader(sampleSerial1))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumLinks() != 4 {
		t.Fatalf("NumLinks = %d, want 4", g.NumLinks())
	}
	if rel, ok := g.HasLink(1, 11); !ok || rel != P2C {
		t.Errorf("1->11 = %v,%v, want p2c", rel, ok)
	}
	if rel, ok := g.HasLink(11, 12); !ok || rel != P2P {
		t.Errorf("11-12 = %v,%v, want p2p", rel, ok)
	}
}

func TestReadRelationshipsSerial2(t *testing.T) {
	g, err := ReadRelationships(strings.NewReader(sampleSerial2))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumLinks() != 3 {
		t.Fatalf("NumLinks = %d, want 3", g.NumLinks())
	}
	// The mlp-sourced line parses like any other; its source is dropped.
	if rel, ok := g.HasLink(11, 12); !ok || rel != P2P {
		t.Errorf("11-12 (mlp) = %v,%v, want p2p", rel, ok)
	}
}

func TestReadRelationshipsErrors(t *testing.T) {
	cases := []string{
		"1|2\n",          // too few fields
		"1|2|5\n",        // unknown relationship
		"x|2|0\n",        // bad ASN
		"1|y|0\n",        // bad ASN
		"1|2|z\n",        // bad rel
		"1|2|0\n1|2|0\n", // duplicate
		"7|7|0\n",        // self link
	}
	for _, in := range cases {
		if _, err := ReadRelationships(strings.NewReader(in)); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
}

func TestRelationshipsRoundTrip(t *testing.T) {
	g, err := ReadRelationships(strings.NewReader(sampleSerial1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteRelationships(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadRelationships(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Links(), g2.Links()) {
		t.Errorf("round trip changed links:\n%v\n%v", g.Links(), g2.Links())
	}
}

// TestRelationshipsRoundTripProperty generates random graphs and checks
// that serial-1 round trips preserve every link exactly.
func TestRelationshipsRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := NewGraph(0, 0)
		nodes := int(n%40) + 2
		for i := 0; i < nodes*2; i++ {
			a := ASN(rng.Intn(nodes) + 1)
			b := ASN(rng.Intn(nodes) + 1)
			rel := P2P
			if rng.Intn(2) == 0 {
				rel = P2C
			}
			_ = g.AddLink(a, b, rel) // dups/self-links rejected, fine
		}
		var buf bytes.Buffer
		if err := WriteRelationships(&buf, g); err != nil {
			return false
		}
		g2, err := ReadRelationships(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(g.Links(), g2.Links())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPPDCAsesRoundTrip(t *testing.T) {
	in := map[ASN][]ASN{
		1:   {1, 11, 12},
		11:  {11},
		500: {500, 1, 2, 3},
	}
	var buf bytes.Buffer
	if err := WritePPDCAses(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadPPDCAses(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip: got %v want %v", out, in)
	}
}

func TestReadPPDCAsesErrors(t *testing.T) {
	if _, err := ReadPPDCAses(strings.NewReader("1 x\n")); err == nil {
		t.Error("bad cone member accepted")
	}
	if _, err := ReadPPDCAses(strings.NewReader("y 2\n")); err == nil {
		t.Error("bad owner accepted")
	}
}
