package bgpsim

import (
	"math/rand"
	"slices"
	"testing"

	"flatnet/internal/astopo"
)

// tiersFor derives tier sets from a random topology the way the presets
// do: provider-free ASes are Tier-1, a random sprinkle of the rest is
// Tier-2. Tier membership is part of the class fingerprint, so any base
// mask that is a function of tier membership is uniform within a class.
func tiersFor(g *astopo.Graph, rng *rand.Rand) (astopo.ASSet, astopo.ASSet) {
	g.Freeze()
	t1, t2 := make(astopo.ASSet), make(astopo.ASSet)
	for i := 0; i < g.NumASes(); i++ {
		if len(g.ProvidersOf(i)) == 0 {
			t1.Add(g.ASNAt(i))
		} else if rng.Intn(6) == 0 {
			t2.Add(g.ASNAt(i))
		}
	}
	return t1, t2
}

// Soundness of the classes: every member of a class must have exactly the
// count of its representative, for every tier-derived base mask shape,
// with and without per-origin provider masking — the property that makes
// CollapseRatio the number of origins sharing one class's counts.
func TestClassIndexMembersEquivalent(t *testing.T) {
	collapsed := 0
	for seed := int64(0); seed < 110; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomTopology(rng)
		g.Freeze()
		n := g.NumASes()
		t1, t2 := tiersFor(g, rng)
		ci := NewClassIndex(g, t1, t2, nil)
		if ci.NumASes() != n {
			t.Fatalf("seed %d: NumASes = %d, want %d", seed, ci.NumASes(), n)
		}
		if len(ci.reps) < n {
			collapsed++
		}

		// The three paper mask shapes: none, Tier-1, Tier-1 ∪ Tier-2.
		masks := [][]bool{nil, make([]bool, n), make([]bool, n)}
		for i := 0; i < n; i++ {
			a := g.ASNAt(i)
			if t1.Has(a) {
				masks[1][i] = true
				masks[2][i] = true
			} else if t2.Has(a) {
				masks[2][i] = true
			}
		}
		br := NewBatchReach(g)
		counts := make([]int, n)
		out := make([]int, BatchLanes)
		for _, base := range masks {
			for _, maskProviders := range []bool{false, true} {
				origins := make([]int32, 0, BatchLanes)
				for lo := 0; lo < n; lo += BatchLanes {
					hi := lo + BatchLanes
					if hi > n {
						hi = n
					}
					origins = origins[:0]
					for i := lo; i < hi; i++ {
						origins = append(origins, int32(i))
					}
					if err := br.Counts(origins, base, maskProviders, out); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					copy(counts[lo:hi], out)
				}
				for i := 0; i < n; i++ {
					rep := ci.reps[ci.classOf[i]]
					if counts[i] != counts[rep] {
						t.Fatalf("seed %d AS%d (class %d, rep AS%d, maskProviders=%v): member count %d != rep count %d",
							seed, g.ASNAt(i), ci.classOf[i], g.ASNAt(int(rep)), maskProviders, counts[i], counts[rep])
					}
				}
			}
		}

		// Structural invariants: every AS is in a class whose rep is its
		// smallest member, and class ids appear in rep order.
		for c, r := range ci.reps {
			if c > 0 && r <= ci.reps[c-1] {
				t.Fatalf("seed %d: reps not strictly increasing at class %d", seed, c)
			}
			if ci.classOf[r] != int32(c) {
				t.Fatalf("seed %d: rep of class %d is in class %d", seed, c, ci.classOf[r])
			}
		}
		for i, c := range ci.classOf {
			if c < 0 || int(c) >= len(ci.reps) || ci.reps[c] > int32(i) {
				t.Fatalf("seed %d: AS index %d in class %d, whose rep is not its smallest member", seed, i, c)
			}
		}
	}
	if collapsed == 0 {
		t.Fatal("no topology in the corpus collapsed — the suite never tested a shared class")
	}
}

// Same graph, same tiers, same annotations: the grouping must be
// deterministic.
func TestClassIndexDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomTopology(rng)
	t1, t2 := tiersFor(g, rng)
	a := NewClassIndex(g, t1, t2, nil)
	b := NewClassIndex(g, t1, t2, nil)
	if !slices.Equal(a.classOf, b.classOf) || !slices.Equal(a.reps, b.reps) || a.NumASes() != b.NumASes() {
		t.Fatalf("two builds differ: classes %v / %v, reps %v / %v", a.classOf, b.classOf, a.reps, b.reps)
	}
}

// Annotated ASes must never share a class with unannotated ones even when
// their neighborhoods match — the device callers use to keep
// specially-treated origins out of shared classes.
func TestClassIndexAnnotationSplitsClass(t *testing.T) {
	// Two leaves under the same provider: identical signatures.
	g := astopo.NewGraph(0, 0)
	g.MustAddLink(1, 10, astopo.P2C)
	g.MustAddLink(1, 11, astopo.P2C)
	g.Freeze()
	plain := NewClassIndex(g, nil, nil, nil)
	i10, _ := g.Index(10)
	i11, _ := g.Index(11)
	if plain.classOf[i10] != plain.classOf[i11] {
		t.Fatalf("identical leaves not grouped: %d vs %d", plain.classOf[i10], plain.classOf[i11])
	}
	if plain.CollapseRatio() <= 1 {
		t.Fatalf("collapse ratio %v with two classmates, want > 1", plain.CollapseRatio())
	}
	annot := make([]uint64, g.NumASes())
	annot[i10] = 1
	split := NewClassIndex(g, nil, nil, annot)
	if split.classOf[i10] == split.classOf[i11] {
		t.Fatal("annotation did not split the class")
	}
}
