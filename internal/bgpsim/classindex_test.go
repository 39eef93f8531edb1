package bgpsim

import (
	"context"
	"math/rand"
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

// Soundness of the collapse itself: every member of a class must have
// exactly the count of its representative, for every tier-derived base
// mask shape, with and without per-origin provider masking. This is the
// property every classed sweep relies on when it copies a representative's
// count to its classmates.
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
		if ci.NumClasses() < n {
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
					rep := ci.Rep(int(ci.ClassOf(i)))
					if counts[i] != counts[rep] {
						t.Fatalf("seed %d AS%d (class %d, rep AS%d, maskProviders=%v): member count %d != rep count %d",
							seed, g.ASNAt(i), ci.ClassOf(i), g.ASNAt(int(rep)), maskProviders, counts[i], counts[rep])
					}
				}
			}
		}

		// Structural invariants: sizes partition n, reps are the smallest
		// members and class ids appear in rep order.
		total := int32(0)
		for c := 0; c < ci.NumClasses(); c++ {
			total += ci.Size(c)
			if c > 0 && ci.Rep(c) <= ci.Rep(c-1) {
				t.Fatalf("seed %d: reps not strictly increasing at class %d", seed, c)
			}
			if ci.ClassOf(int(ci.Rep(c))) != int32(c) {
				t.Fatalf("seed %d: rep of class %d is in class %d", seed, c, ci.ClassOf(int(ci.Rep(c))))
			}
		}
		if total != int32(n) {
			t.Fatalf("seed %d: class sizes sum to %d, want %d", seed, total, n)
		}
	}
	if collapsed == 0 {
		t.Fatal("no topology in the corpus collapsed — the suite never tested a real dedup")
	}
}

// Same graph, same tiers, same annotations: the grouping must be
// deterministic (it feeds cluster shard planning keyed only by world hash).
func TestClassIndexDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomTopology(rng)
	t1, t2 := tiersFor(g, rng)
	a := NewClassIndex(g, t1, t2, nil)
	b := NewClassIndex(g, t1, t2, nil)
	assertSameIndex(t, a, b)
}

func assertSameIndex(t *testing.T, a, b *ClassIndex) {
	t.Helper()
	if a.NumASes() != b.NumASes() || a.NumClasses() != b.NumClasses() {
		t.Fatalf("shape mismatch: %d/%d ASes, %d/%d classes",
			a.NumASes(), b.NumASes(), a.NumClasses(), b.NumClasses())
	}
	for i := 0; i < a.NumASes(); i++ {
		if a.ClassOf(i) != b.ClassOf(i) {
			t.Fatalf("AS index %d: class %d != %d", i, a.ClassOf(i), b.ClassOf(i))
		}
	}
	for c := 0; c < a.NumClasses(); c++ {
		if a.Rep(c) != b.Rep(c) || a.Size(c) != b.Size(c) {
			t.Fatalf("class %d: rep/size %d/%d != %d/%d", c, a.Rep(c), a.Size(c), b.Rep(c), b.Size(c))
		}
	}
	for i := 0; i < a.NumASes(); i++ {
		if a.sig[i] != b.sig[i] {
			t.Fatalf("AS index %d: sig %x != %x", i, a.sig[i], b.sig[i])
		}
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
	if plain.ClassOf(i10) != plain.ClassOf(i11) {
		t.Fatalf("identical leaves not grouped: %d vs %d", plain.ClassOf(i10), plain.ClassOf(i11))
	}
	annot := make([]uint64, g.NumASes())
	annot[i10] = 1
	split := NewClassIndex(g, nil, nil, annot)
	if split.ClassOf(i10) == split.ClassOf(i11) {
		t.Fatal("annotation did not split the class")
	}
}

// Evolve must be indistinguishable from a from-scratch rebuild whenever
// touched covers every AS whose adjacency changed — across removals,
// additions, and brand-new ASes.
func TestClassIndexEvolveMatchesRebuild(t *testing.T) {
	for seed := int64(0); seed < 80; seed++ {
		rng := rand.New(rand.NewSource(300 + seed))
		g := randomTopology(rng)
		g.Freeze()
		n := g.NumASes()
		t1, t2 := tiersFor(g, rng)
		prev := NewClassIndex(g, t1, t2, nil)

		// Mutate the link list: drop a few, add a few, attach new ASes.
		links := g.Links()
		pairKey := func(a, b astopo.ASN) [2]astopo.ASN {
			if a > b {
				a, b = b, a
			}
			return [2]astopo.ASN{a, b}
		}
		kept := make(map[[2]astopo.ASN]bool, len(links))
		var next []astopo.Link
		var touched []astopo.ASN
		for _, l := range links {
			if rng.Intn(12) == 0 {
				touched = append(touched, l.A, l.B)
				continue
			}
			kept[pairKey(l.A, l.B)] = true
			next = append(next, l)
		}
		add := func(l astopo.Link) bool {
			if l.A == l.B || kept[pairKey(l.A, l.B)] {
				return false
			}
			kept[pairKey(l.A, l.B)] = true
			next = append(next, l)
			touched = append(touched, l.A, l.B)
			return true
		}
		for k := 0; k < 1+rng.Intn(3); k++ {
			add(astopo.Link{A: g.ASNAt(rng.Intn(n)), B: g.ASNAt(rng.Intn(n)), Rel: astopo.P2P})
		}
		for k := 0; k < rng.Intn(3); k++ {
			add(astopo.Link{A: g.ASNAt(rng.Intn(n)), B: astopo.ASN(1000 + k), Rel: astopo.P2C})
		}
		ng := astopo.NewGraph(n, len(next))
		for _, l := range next {
			ng.MustAddLink(l.A, l.B, l.Rel)
		}
		ng.Freeze()

		evolved := prev.Evolve(ng, t1, t2, nil, touched)
		rebuilt := NewClassIndex(ng, t1, t2, nil)
		assertSameIndex(t, evolved, rebuilt)
	}
}

// The leak-trial dedup must be invisible: with a class index attached,
// TrialsN over a leaker population containing classmates must return
// trials byte-identical to the undeduped sweep — including per-leaker
// config bits (exclusions, locking, policy) that break class symmetry.
func TestLeakSweepClassDedupMatches(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(500 + seed))
		g := randomTopology(rng)
		g.Freeze()
		n := g.NumASes()
		all := g.ASes()
		origin := all[rng.Intn(len(all))]
		oi, _ := g.Index(origin)

		cfg := Config{Origin: origin}
		if rng.Intn(3) == 0 {
			cfg.Exclude = make([]bool, n)
			for i := range cfg.Exclude {
				if i != oi && rng.Intn(7) == 0 {
					cfg.Exclude[i] = true
				}
			}
		}
		if rng.Intn(3) == 0 {
			cfg.Locking = make([]bool, n)
			for i := range cfg.Locking {
				if rng.Intn(6) == 0 {
					cfg.Locking[i] = true
				}
			}
		}
		if rng.Intn(4) == 0 {
			var keep []astopo.ASN
			for _, rel := range [][]int32{g.ProvidersOf(oi), g.CustomersOf(oi), g.PeersOf(oi)} {
				for _, v := range rel {
					if rng.Intn(2) == 0 {
						keep = append(keep, g.ASNAt(int(v)))
					}
				}
			}
			cfg.Policy = NewPolicy(g, keep)
		}

		leakers := make([]astopo.ASN, 0, n-1)
		for _, a := range all {
			if a != origin {
				leakers = append(leakers, a)
			}
		}
		rng.Shuffle(len(leakers), func(i, j int) { leakers[i], leakers[j] = leakers[j], leakers[i] })

		run := func(withClasses bool) ([]LeakTrial, error) {
			sw, err := NewLeakSweep(g, cfg)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			defer sw.Release()
			if withClasses {
				t1, t2 := tiersFor(g, rand.New(rand.NewSource(seed)))
				sw.SetClasses(NewClassIndex(g, t1, t2, nil))
			}
			return sw.TrialsN(context.Background(), leakers, nil, 1)
		}
		want, werr := run(false)
		got, gerr := run(true)
		// Configs whose mask excludes a leaker error; the deduped sweep
		// must report the identical error, naming the identical leaker.
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("seed %d: error parity broken: baseline %v, deduped %v", seed, werr, gerr)
		}
		if werr != nil {
			if werr.Error() != gerr.Error() {
				t.Fatalf("seed %d: error mismatch: %q != %q", seed, gerr, werr)
			}
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d trials != %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d trial %d (leaker AS%d): deduped %+v != baseline %+v",
					seed, i, leakers[i], got[i], want[i])
			}
		}
	}
}

// Weighted collapsed runs must agree with the undeduped sweep — exactly on
// DetouredFrac (the automorphism maps the detoured set bijectively) and up
// to float reordering on DetouredUserFrac (the O(1) classmate correction
// adds terms in a different order than the node-order reduction) — and an
// unknown leaker must fail identically either way.
func TestLeakSweepClassDedupGuards(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomTopology(rng)
	g.Freeze()
	all := g.ASes()
	origin := all[0]
	t1, t2 := tiersFor(g, rng)
	ci := NewClassIndex(g, t1, t2, nil)

	leakers := append([]astopo.ASN(nil), all[1:]...)
	weights := make([]float64, g.NumASes())
	for i := range weights {
		weights[i] = float64(i + 1)
	}
	runPair := func(lk []astopo.ASN, w []float64) ([]LeakTrial, error, []LeakTrial, error) {
		s1, err := NewLeakSweep(g, Config{Origin: origin})
		if err != nil {
			t.Fatal(err)
		}
		base, berr := s1.TrialsN(context.Background(), lk, w, 1)
		s1.Release()
		s2, err := NewLeakSweep(g, Config{Origin: origin})
		if err != nil {
			t.Fatal(err)
		}
		s2.SetClasses(ci)
		ded, derr := s2.TrialsN(context.Background(), lk, w, 1)
		s2.Release()
		return base, berr, ded, derr
	}

	base, berr, ded, derr := runPair(leakers, weights)
	if berr != nil || derr != nil {
		t.Fatalf("weighted runs failed: %v / %v", berr, derr)
	}
	for i := range base {
		if ded[i].Leaker != base[i].Leaker || ded[i].DetouredFrac != base[i].DetouredFrac ||
			!wsumClose(ded[i].DetouredUserFrac, base[i].DetouredUserFrac) {
			t.Fatalf("weighted trial %d: %+v != %+v", i, ded[i], base[i])
		}
	}

	bad := append(append([]astopo.ASN(nil), leakers...), astopo.ASN(999999))
	_, berr, _, derr = runPair(bad, nil)
	if berr == nil || derr == nil {
		t.Fatalf("unknown leaker must fail on both paths: %v / %v", berr, derr)
	}
	if berr.Error() != derr.Error() {
		t.Fatalf("error mismatch: %q != %q", berr, derr)
	}
}

// The probe bits behind the weighted collapse must agree between engines:
// trialsDispatchProbes answered by the batch lane words must match a direct
// scalar replay's flags for every (leaker, node) pair. The leaker list is
// tiled past BatchLanes so the batch dispatch engages on the small random
// topologies; probes of a leaker's own node are skipped (the batch mask
// excludes them by design, and the collapse pairs them with a zero weight
// delta, so their value never matters).
func TestTrialsDispatchProbesBatchMatchesScalar(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(900 + seed))
		g := randomTopology(rng)
		g.Freeze()
		n := g.NumASes()
		all := g.ASes()
		origin := all[rng.Intn(len(all))]
		oi, _ := g.Index(origin)

		cfg := Config{Origin: origin}
		if rng.Intn(2) == 0 {
			cfg.Locking = make([]bool, n)
			for i := range cfg.Locking {
				if rng.Intn(6) == 0 {
					cfg.Locking[i] = true
				}
			}
		}
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = rng.Float64()
		}

		base := make([]astopo.ASN, 0, n-1)
		for _, a := range all {
			if a != origin {
				base = append(base, a)
			}
		}
		leakers := make([]astopo.ASN, 0, 2*BatchLanes)
		for len(leakers) < BatchLanes+7 {
			leakers = append(leakers, base...)
		}

		probeOff := make([]int32, len(leakers)+1)
		probeNode := make([]int32, 0, len(leakers)*n)
		for j, l := range leakers {
			li, _ := g.Index(l)
			for v := int32(0); v < int32(n); v++ {
				if int(v) == li || int(v) == oi {
					continue
				}
				probeNode = append(probeNode, v)
			}
			probeOff[j+1] = int32(len(probeNode))
		}

		sw, err := NewLeakSweep(g, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		out := make([]LeakTrial, len(leakers))
		bits := make([]bool, len(probeNode))
		err = sw.trialsDispatchProbes(ctx, leakers, weights, out, 1, probeOff, probeNode, bits)
		sw.Release()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		chk, err := NewLeakSweep(g, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		defer chk.Release()
		for j, l := range leakers {
			tr, err := chk.TrialCtx(ctx, l, weights)
			if err != nil {
				t.Fatalf("seed %d leaker AS%d: %v", seed, l, err)
			}
			if out[j] != tr {
				t.Fatalf("seed %d leaker %d (AS%d): dispatch %+v != scalar %+v", seed, j, l, out[j], tr)
			}
			for p := probeOff[j]; p < probeOff[j+1]; p++ {
				want := tr.DetouredFrac != 0 && chk.sim.flags[probeNode[p]]&ViaLeak != 0
				if bits[p] != want {
					t.Fatalf("seed %d leaker %d (AS%d) node %d: probe %v != scalar %v",
						seed, j, l, probeNode[p], bits[p], want)
				}
			}
		}
	}
}

// Golden sweep for the weighted collapse across random topologies, weight
// vectors, and symmetry-breaking config bits: DetouredFrac and the leaker
// must match the undeduped sweep exactly, DetouredUserFrac up to the
// correction's float reordering, and per-leaker errors (excluded leakers)
// must surface identically.
func TestLeakSweepClassDedupWeightedMatches(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(700 + seed))
		g := randomTopology(rng)
		g.Freeze()
		n := g.NumASes()
		all := g.ASes()
		origin := all[rng.Intn(len(all))]
		oi, _ := g.Index(origin)

		cfg := Config{Origin: origin}
		if rng.Intn(3) == 0 {
			cfg.Exclude = make([]bool, n)
			for i := range cfg.Exclude {
				if i != oi && rng.Intn(7) == 0 {
					cfg.Exclude[i] = true
				}
			}
		}
		if rng.Intn(3) == 0 {
			cfg.Locking = make([]bool, n)
			for i := range cfg.Locking {
				if rng.Intn(6) == 0 {
					cfg.Locking[i] = true
				}
			}
		}

		weights := make([]float64, n)
		for i := range weights {
			weights[i] = rng.Float64()
		}

		leakers := make([]astopo.ASN, 0, n-1)
		for _, a := range all {
			if a != origin {
				leakers = append(leakers, a)
			}
		}
		rng.Shuffle(len(leakers), func(i, j int) { leakers[i], leakers[j] = leakers[j], leakers[i] })

		run := func(withClasses bool) ([]LeakTrial, error) {
			sw, err := NewLeakSweep(g, cfg)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			defer sw.Release()
			if withClasses {
				t1, t2 := tiersFor(g, rand.New(rand.NewSource(seed)))
				sw.SetClasses(NewClassIndex(g, t1, t2, nil))
			}
			return sw.TrialsN(context.Background(), leakers, weights, 1)
		}
		want, werr := run(false)
		got, gerr := run(true)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("seed %d: error parity broken: baseline %v, deduped %v", seed, werr, gerr)
		}
		if werr != nil {
			if werr.Error() != gerr.Error() {
				t.Fatalf("seed %d: error mismatch: %q != %q", seed, gerr, werr)
			}
			continue
		}
		for i := range want {
			if got[i].Leaker != want[i].Leaker || got[i].DetouredFrac != want[i].DetouredFrac ||
				!wsumClose(got[i].DetouredUserFrac, want[i].DetouredUserFrac) {
				t.Fatalf("seed %d trial %d (leaker AS%d): deduped %+v != baseline %+v",
					seed, i, leakers[i], got[i], want[i])
			}
		}
	}
}
