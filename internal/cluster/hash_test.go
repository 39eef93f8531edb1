package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"flatnet/internal/astopo"
	"flatnet/internal/topogen"
)

// fieldHash is the content address written field by field, one Write per
// value: the definition DatasetHash's buffered encoder must reproduce byte
// for byte.
func fieldHash(g *astopo.Graph, tier1, tier2 astopo.ASSet) string {
	f := g.Frozen()
	h := sha256.New()
	var scratch [8]byte
	u32 := func(v uint32) {
		binary.LittleEndian.PutUint32(scratch[:4], v)
		h.Write(scratch[:4])
	}
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:8], v)
		h.Write(scratch[:8])
	}
	h.Write([]byte("flatnet-world-v1"))
	u64(uint64(len(f.Nodes)))
	u64(uint64(len(f.LinkA)))
	for _, a := range f.Nodes {
		u32(uint32(a))
	}
	for _, off := range [][]int32{f.ProvOff, f.CustOff, f.PeerOff} {
		for _, v := range off {
			u32(uint32(v))
		}
	}
	for _, v := range f.Arena {
		u32(uint32(v))
	}
	for i := range f.LinkA {
		u32(uint32(f.LinkA[i]))
		u32(uint32(f.LinkB[i]))
		u32(uint32(int32(f.LinkRel[i])))
	}
	for _, set := range []astopo.ASSet{tier1, tier2} {
		asns := set.Slice()
		slices.Sort(asns)
		u64(uint64(len(asns)))
		for _, a := range asns {
			u32(uint32(a))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// randomWorld builds a random graph of n ASes with about deg links each
// (p2c and p2p mixed), with wide ASNs, and random Tier-1/Tier-2 sets.
func randomWorld(rng *rand.Rand, n, deg int) (*astopo.Graph, astopo.ASSet, astopo.ASSet) {
	asns := make([]astopo.ASN, n)
	for i := range asns {
		asns[i] = astopo.ASN(1 + rng.Intn(400000))
	}
	g := astopo.NewGraph(0, 0)
	for k := 0; k < n*deg; k++ {
		a, b := asns[rng.Intn(n)], asns[rng.Intn(n)]
		if a == b {
			continue
		}
		rel := astopo.P2C
		if rng.Intn(3) == 0 {
			rel = astopo.P2P
		}
		_ = g.AddLink(a, b, rel) // duplicates and reversed pairs are refused; the rest stand
	}
	t1, t2 := astopo.NewASSet(), astopo.NewASSet()
	for _, a := range asns {
		switch rng.Intn(40) {
		case 0:
			t1.Add(a)
		case 1:
			t2.Add(a)
		}
	}
	return g, t1, t2
}

// TestDatasetHashGolden pins the content address of the CLI-default
// presets and one random corpus graph. The digests were recorded with the
// field-by-field encoder; a change here re-keys every snapshot, delta and
// timeline row, so it must be deliberate.
func TestDatasetHashGolden(t *testing.T) {
	const scale = 0.04987
	for _, c := range []struct {
		name string
		spec topogen.Spec
		want string
	}{
		{"2015", topogen.Internet2015(scale), "b3d165fb1f845ffa7fee9a3b9704b284b885afa4e4efa762a07d7a4beaf7f832"},
		{"2020", topogen.Internet2020(scale), "4bbcc93e836d0f891cd90b1bdb84f13567a0e888a260439d31b8d2ae348b1b54"},
	} {
		in, err := topogen.Generate(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := DatasetHash(in.Graph, in.Tier1, in.Tier2); got != c.want {
			t.Errorf("preset %s at scale %g: DatasetHash = %s, want %s", c.name, scale, got, c.want)
		}
	}
	g, t1, t2 := randomWorld(rand.New(rand.NewSource(52)), 3000, 4)
	if got, want := DatasetHash(g, t1, t2), "e973a02d6323b820f66bb4221bca21670c6e3efbb1cbe3a7d9ce67dfb9a42df7"; got != want {
		t.Errorf("corpus graph: DatasetHash = %s, want %s", got, want)
	}
}

// TestDatasetHashMatchesFieldByField compares the buffered encoder with the
// field-by-field one on random graphs, from empty ones to graphs whose
// arrays span several buffer flushes.
func TestDatasetHashMatchesFieldByField(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(60)
		if trial%8 == 0 {
			n = 4000 + rng.Intn(6000)
		}
		g, t1, t2 := randomWorld(rng, n, 1+rng.Intn(5))
		if trial == 1 {
			g, t1, t2 = astopo.NewGraph(0, 0), astopo.NewASSet(), astopo.NewASSet()
		}
		if got, want := DatasetHash(g, t1, t2), fieldHash(g, t1, t2); got != want {
			t.Fatalf("trial %d (%d ASes, %d links): DatasetHash = %s, field by field %s",
				trial, g.NumASes(), len(g.Frozen().LinkA), got, want)
		}
	}
}
