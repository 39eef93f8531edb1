package cluster

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"

	"flatnet/internal/astopo"
)

// DatasetHash computes the content address of a served world: a sha256
// over the frozen topology arrays (sorted node list, CSR offsets and
// arena, link columns) and the sorted Tier-1/Tier-2 exclusion sets.
//
// Two nodes with equal hashes index the same AS at the same dense position
// and exclude the same tiers, so shard results keyed by dense index ranges
// can be merged without translation. Worlds loaded from the same snapshot
// hash equal by construction; independently generated worlds hash equal
// because generation is deterministic (the netdb map-iteration fix in
// PR 5 is what makes that guarantee hold).
//
// The hash is defined over explicit little-endian bytes, not in-memory
// representation, so it is stable across architectures. Those bytes are
// encoded into a buffer, whole arrays and interleaved link triples alike,
// and the hash takes one Write per full buffer: a daemon hashes its whole
// world before it serves, and a Write per word would cost several times
// the SHA-256 work itself. bufio's default 4 KiB hashes the scale-1.0
// world as fast as 64 KiB does (2-vCPU host), and a 64 KiB buffer made at
// a daemon's start raised its peak RSS under load by about 0.6 MiB.
func DatasetHash(g *astopo.Graph, tier1, tier2 astopo.ASSet) string {
	f := g.Frozen()
	h := sha256.New()
	w := bufio.NewWriter(h)
	u64 := func(v uint64) {
		w.Write(binary.LittleEndian.AppendUint64(w.AvailableBuffer(), v))
	}
	w.WriteString("flatnet-world-v1")
	u64(uint64(len(f.Nodes)))
	u64(uint64(len(f.LinkA)))
	hashWords(w, f.Nodes)
	hashWords(w, f.ProvOff)
	hashWords(w, f.CustOff)
	hashWords(w, f.PeerOff)
	hashWords(w, f.Arena)
	// Each link is one (A, B, Rel) triple of words; Rel is sign-extended.
	for i := 0; i < len(f.LinkA); {
		if w.Available() < 12 {
			w.Flush()
		}
		k := min(len(f.LinkA)-i, w.Available()/12)
		b := w.AvailableBuffer()
		for j := i; j < i+k; j++ {
			b = binary.LittleEndian.AppendUint32(b, uint32(f.LinkA[j]))
			b = binary.LittleEndian.AppendUint32(b, uint32(f.LinkB[j]))
			b = binary.LittleEndian.AppendUint32(b, uint32(int32(f.LinkRel[j])))
		}
		w.Write(b)
		i += k
	}
	for _, set := range []astopo.ASSet{tier1, tier2} {
		asns := set.Slice()
		slices.Sort(asns)
		u64(uint64(len(asns)))
		hashWords(w, asns)
	}
	w.Flush() // a hash's Write never fails
	return fmt.Sprintf("%x", h.Sum(nil))
}

// hashWords encodes a whole array into w as 32-bit little-endian words, as
// many as the buffer has room for at a time.
func hashWords[T ~uint32 | ~int32](w *bufio.Writer, s []T) {
	for len(s) > 0 {
		if w.Available() < 4 {
			w.Flush()
		}
		k := min(len(s), w.Available()/4)
		b := w.AvailableBuffer()
		for _, v := range s[:k] {
			b = binary.LittleEndian.AppendUint32(b, uint32(v))
		}
		w.Write(b)
		s = s[k:]
	}
}
