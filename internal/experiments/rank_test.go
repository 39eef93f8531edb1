package experiments

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"flatnet/internal/astopo"
	"flatnet/internal/core"
	"flatnet/internal/topogen"
)

// sortRank is Table 1's ranking by a full sort of every AS: the oracle for
// table1Rank's selection and counting.
func sortRank(in *topogen.Internet, reach []int, k int) ([]Table1Row, map[string]Table1Row) {
	g := in.Graph
	total := float64(g.NumASes() - 1)
	rows := make([]Table1Row, len(reach))
	for i, n := range reach {
		rows[i] = Table1Row{AS: g.ASNAt(i), Reach: n, Pct: 100 * float64(n) / total}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Reach != rows[j].Reach {
			return rows[i].Reach > rows[j].Reach
		}
		return rows[i].AS < rows[j].AS
	})
	clouds := map[string]Table1Row{}
	for i := range rows {
		rows[i].Rank = i + 1
		rows[i].Name = in.NameOf(rows[i].AS)
		for _, c := range Clouds() {
			if in.Clouds[c] == rows[i].AS {
				clouds[c] = rows[i]
			}
		}
	}
	return rows[:k], clouds
}

func sameRow(a, b Table1Row) bool {
	pc := a.PctChange == b.PctChange || math.IsNaN(a.PctChange) && math.IsNaN(b.PctChange)
	return pc && a.Rank == b.Rank && a.Name == b.Name && a.AS == b.AS && a.Reach == b.Reach && a.Pct == b.Pct
}

func checkRank(t *testing.T, label string, in *topogen.Internet, reach []int, k int) {
	t.Helper()
	top, clouds := table1Rank(in, reach, k)
	wantTop, wantClouds := sortRank(in, reach, k)
	if len(top) != len(wantTop) {
		t.Fatalf("%s k=%d: %d rows, full sort %d", label, k, len(top), len(wantTop))
	}
	for i := range top {
		if !sameRow(top[i], wantTop[i]) {
			t.Fatalf("%s k=%d row %d: %+v, full sort %+v", label, k, i, top[i], wantTop[i])
		}
	}
	if len(clouds) != len(wantClouds) {
		t.Fatalf("%s: %d cloud ranks, full sort %d", label, len(clouds), len(wantClouds))
	}
	for c, r := range wantClouds {
		if !sameRow(clouds[c], r) {
			t.Fatalf("%s: %s %+v, full sort %+v", label, c, clouds[c], r)
		}
	}
}

// Table 1's top rows and cloud ranks are the full sort's, on both years'
// sweeps and on sweeps of few distinct values, where nearly every rank is
// decided by the ASN tie-break.
func TestTable1RankMatchesFullSort(t *testing.T) {
	env := getEnv(t)
	rng := rand.New(rand.NewSource(3))
	for _, year := range []int{2015, 2020} {
		in := env.In2020
		if year == 2015 {
			in = env.In2015
		}
		all, err := env.SweepAll(year, core.HierarchyFree)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{0, 1, 5, 20, len(all)} {
			checkRank(t, "sweep", in, all, k)
		}
		ties := make([]int, len(all))
		for i := range ties {
			ties[i] = rng.Intn(4)
		}
		for _, k := range []int{1, 20, 300} {
			checkRank(t, "ties", in, ties, k)
		}
	}
}

// Table1's PctChange for each printed 2020 row is its percentage minus the
// same AS's 2015 percentage, NaN when the AS is absent in 2015.
func TestTable1PctChange(t *testing.T) {
	env := getEnv(t)
	res, err := Table1(env, 20)
	if err != nil {
		t.Fatal(err)
	}
	all15, err := env.SweepAll(2015, core.HierarchyFree)
	if err != nil {
		t.Fatal(err)
	}
	rows15, _ := sortRank(env.In2015, all15, len(all15))
	pct15 := map[astopo.ASN]float64{}
	for _, r := range rows15 {
		pct15[r.AS] = r.Pct
	}
	for _, r := range res.Top2020 {
		want := math.NaN()
		if p, ok := pct15[r.AS]; ok {
			want = r.Pct - p
		}
		if r.PctChange != want && !(math.IsNaN(r.PctChange) && math.IsNaN(want)) {
			t.Errorf("AS%d: PctChange %v, want %v", r.AS, r.PctChange, want)
		}
	}
	for _, r := range res.Top2015 {
		if r.PctChange != 0 {
			t.Errorf("2015 row AS%d carries PctChange %v", r.AS, r.PctChange)
		}
	}
}

// sortRanks is Spearman's tie-averaged ranking by a sort: the oracle for
// ranks' counting pass.
func sortRanks(xs []int) []float64 {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return xs[idx[i]] < xs[idx[j]] })
	out := make([]float64, len(xs))
	for i := 0; i < len(idx); {
		j := i
		for j < len(idx) && xs[idx[j]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j-1)/2 + 1
		for k := i; k < j; k++ {
			out[idx[k]] = avg
		}
		i = j
	}
	return out
}

func TestRanksMatchSort(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		xs := make([]int, rng.Intn(300))
		span := 1 + rng.Intn(1000)
		for i := range xs {
			xs[i] = rng.Intn(span) - span/3
		}
		if got, want := ranks(xs), sortRanks(xs); !slices.Equal(got, want) {
			t.Fatalf("trial %d %v: ranks %v, sorted %v", trial, xs, got, want)
		}
	}
	env := getEnv(t)
	reach, err := env.SweepAll(2020, core.HierarchyFree)
	if err != nil {
		t.Fatal(err)
	}
	cones := env.In2020.Graph.ConeSizes()
	for _, xs := range [][]int{reach, cones} {
		if !slices.Equal(ranks(xs), sortRanks(xs)) {
			t.Fatal("ranks of the 2020 sweep or cone sizes differ from the sorted ranking")
		}
	}
}
