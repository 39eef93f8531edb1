package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"

	"flatnet/internal/astopo"
	"flatnet/internal/core"
	"flatnet/internal/population"
	"flatnet/internal/topogen"
)

// Fig2Row is one network's stacked bar in Fig. 2.
type Fig2Row struct {
	Name          string
	AS            astopo.ASN
	Group         string // "cloud", "tier1", "tier2"
	ProviderFree  int
	Tier1Free     int
	HierarchyFree int
}

// Fig2 computes reachability for the clouds, Tier-1s, and Tier-2s under
// the three subgraph constraints, sorted by descending hierarchy-free
// reachability like the paper's figure. The hierarchy-free column is read
// off the all-AS sweep Table 1 and Fig. 3 rank; the other two kinds have no
// other consumer, so each is one ReachabilityMany over the figure's few
// dozen origins — a partial block of the batch engine.
func Fig2(env *Env) ([]Fig2Row, error) {
	in, m := env.In2020, env.M2020
	hf, err := env.SweepAll(2020, core.HierarchyFree)
	if err != nil {
		return nil, err
	}
	var rows []Fig2Row
	var origins []astopo.ASN
	add := func(a astopo.ASN, group string) {
		rows = append(rows, Fig2Row{Name: in.NameOf(a), AS: a, Group: group})
		origins = append(origins, a)
	}
	for _, c := range Clouds() {
		add(in.Clouds[c], "cloud")
	}
	for _, a := range in.Tier1.Slice() {
		add(a, "tier1")
	}
	for _, a := range in.Tier2.Slice() {
		add(a, "tier2")
	}
	ctx := context.Background()
	pf, err := m.ReachabilityMany(ctx, origins, core.ProviderFree)
	if err != nil {
		return nil, err
	}
	t1f, err := m.ReachabilityMany(ctx, origins, core.Tier1Free)
	if err != nil {
		return nil, err
	}
	for k := range rows {
		i, _ := in.Graph.Index(origins[k]) // present: ReachabilityMany found it
		rows[k].ProviderFree, rows[k].Tier1Free, rows[k].HierarchyFree = pf[k], t1f[k], hf[i]
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].HierarchyFree > rows[j].HierarchyFree })
	return rows, nil
}

func printFig2(w io.Writer, env *Env, rows []Fig2Row) error {
	total := env.In2020.Graph.NumASes() - 1
	fmt.Fprintf(w, "%-18s %-6s %12s %12s %15s\n", "network", "group", "provider-free", "tier1-free", "hierarchy-free")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %-6s %7d (%3.0f%%) %6d (%3.0f%%) %8d (%3.0f%%)\n",
			r.Name, r.Group,
			r.ProviderFree, 100*float64(r.ProviderFree)/float64(total),
			r.Tier1Free, 100*float64(r.Tier1Free)/float64(total),
			r.HierarchyFree, 100*float64(r.HierarchyFree)/float64(total))
	}
	return nil
}

// Table1Row is one rank entry of Table 1.
type Table1Row struct {
	Rank  int
	Name  string
	AS    astopo.ASN
	Reach int
	Pct   float64
	// PctChange is the 2020-vs-2015 percentage-point change (2020 side
	// only; NaN when the AS is absent in 2015).
	PctChange float64
}

// Table1Result holds both years' rankings plus the clouds' ranks even when
// outside the top k (the paper annotates Microsoft #62 and Amazon #206 in
// 2015).
type Table1Result struct {
	Top2015, Top2020 []Table1Row
	CloudRanks2015   map[string]Table1Row
	CloudRanks2020   map[string]Table1Row
}

// Table1 ranks every AS by hierarchy-free reachability in both presets, in
// (reach descending, ASN ascending) order: the top k rows of each year, and
// the clouds' rows wherever they rank. Nothing else of the order is kept,
// so no year's ASes are sorted: the top k are selected, and a cloud's rank
// is one more than the number of ASes ahead of it.
func Table1(env *Env, topK int) (*Table1Result, error) {
	all15, err := env.SweepAll(2015, core.HierarchyFree)
	if err != nil {
		return nil, err
	}
	all20, err := env.SweepAll(2020, core.HierarchyFree)
	if err != nil {
		return nil, err
	}
	topK = min(topK, len(all15), len(all20))
	top15, c15 := table1Rank(env.In2015, all15, topK)
	top20, c20 := table1Rank(env.In2020, all20, topK)
	// The percentage-point change of each printed 2020 row against the
	// same AS's 2015 percentage.
	g15 := env.In2015.Graph
	total15 := float64(g15.NumASes() - 1)
	for i := range top20 {
		if j, ok := g15.Index(top20[i].AS); ok {
			top20[i].PctChange = top20[i].Pct - 100*float64(all15[j])/total15
		} else {
			top20[i].PctChange = math.NaN()
		}
	}
	return &Table1Result{
		Top2015:        top15,
		Top2020:        top20,
		CloudRanks2015: c15,
		CloudRanks2020: c20,
	}, nil
}

// table1Rank selects one year's top k rows from its sweep (reach by dense
// index; dense order is ASN order, so an index breaks a reach tie as the
// ASN does) and ranks the clouds present in the graph.
func table1Rank(in *topogen.Internet, reach []int, k int) ([]Table1Row, map[string]Table1Row) {
	g := in.Graph
	total := float64(g.NumASes() - 1)
	row := func(i, rank int) Table1Row {
		a := g.ASNAt(i)
		return Table1Row{Rank: rank, Name: in.NameOf(a), AS: a, Reach: reach[i], Pct: 100 * float64(reach[i]) / total}
	}
	// top holds the best indexes seen so far, best first. A later index
	// ranks behind an earlier one of equal reach, so it enters only with
	// strictly more reach than top's last.
	top := make([]int, 0, k+1)
	for i, r := range reach {
		if len(top) == k && (k == 0 || r <= reach[top[k-1]]) {
			continue
		}
		at := sort.Search(len(top), func(j int) bool { return reach[top[j]] < r })
		top = slices.Insert(top, at, i)
		if len(top) > k {
			top = top[:k]
		}
	}
	rows := make([]Table1Row, len(top))
	for r, i := range top {
		rows[r] = row(i, r+1)
	}
	type cloud struct {
		name  string
		i     int
		ahead int
	}
	var cs []cloud
	for _, c := range Clouds() {
		if i, ok := g.Index(in.Clouds[c]); ok {
			cs = append(cs, cloud{name: c, i: i})
		}
	}
	for j, r := range reach {
		for c := range cs {
			if rc := reach[cs[c].i]; r > rc || r == rc && j < cs[c].i {
				cs[c].ahead++
			}
		}
	}
	clouds := make(map[string]Table1Row, len(cs))
	for _, c := range cs {
		clouds[c.name] = row(c.i, c.ahead+1)
	}
	return rows, clouds
}

// table1Top20 is Table 1 as the paper prints it, the top 20 of each year.
func table1Top20(env *Env) (*Table1Result, error) { return Table1(env, 20) }

func printTable1(w io.Writer, _ *Env, res *Table1Result) error {
	fmt.Fprintf(w, "%-4s %-20s %10s %8s   |   %-20s %10s %8s %8s\n",
		"#", "2015 network", "reach", "%", "2020 network", "reach", "%", "Δ%")
	for i := range res.Top2020 {
		r15, r20 := res.Top2015[i], res.Top2020[i]
		fmt.Fprintf(w, "%-4d %-20s %10d %7.1f%%   |   %-20s %10d %7.1f%% %+7.1f\n",
			i+1, r15.Name, r15.Reach, r15.Pct, r20.Name, r20.Reach, r20.Pct, r20.PctChange)
	}
	fmt.Fprintln(w, "cloud ranks:")
	for _, c := range Clouds() {
		fmt.Fprintf(w, "  %-10s 2015: #%-5d (%.1f%%)   2020: #%-5d (%.1f%%)\n",
			c, res.CloudRanks2015[c].Rank, res.CloudRanks2015[c].Pct,
			res.CloudRanks2020[c].Rank, res.CloudRanks2020[c].Pct)
	}
	return nil
}

// Fig3Point is one AS in the cone-vs-reach scatter.
type Fig3Point struct {
	AS    astopo.ASN
	Cone  int
	Reach int
	Type  population.ASType
	Class topogen.ASClass
}

// Fig3Result carries the scatter plus the paper's summary statistics.
type Fig3Result struct {
	Points []Fig3Point
	// HighReach counts ASes with hierarchy-free reachability >= the
	// threshold; HighCone the same for customer cone (the paper: 8,374
	// vs 51 at >= 1,000 on the 69,488-AS graph).
	Threshold           int
	HighReach, HighCone int
	SpearmanRho         float64
}

// Fig3 computes hierarchy-free reachability and customer cone for every AS.
func Fig3(env *Env) (*Fig3Result, error) {
	reach, err := env.SweepAll(2020, core.HierarchyFree)
	if err != nil {
		return nil, err
	}
	in := env.In2020
	g := in.Graph
	cones := g.ConeSizes()
	res := &Fig3Result{Points: make([]Fig3Point, g.NumASes())}
	// Scale the paper's >= 1000 threshold to our graph size.
	res.Threshold = int(1000 * float64(g.NumASes()) / 69488)
	if res.Threshold < 1 {
		res.Threshold = 1
	}
	// The population's columns are the graph's dense order.
	_, types, _, _ := env.Pop2020.Dense()
	for i := range res.Points {
		res.Points[i] = Fig3Point{AS: g.ASNAt(i), Cone: cones[i], Reach: reach[i], Type: types[i], Class: in.ClassAt(i)}
		if reach[i] >= res.Threshold {
			res.HighReach++
		}
		if cones[i] >= res.Threshold {
			res.HighCone++
		}
	}
	res.SpearmanRho = spearman(cones, reach)
	return res, nil
}

func printFig3(w io.Writer, _ *Env, res *Fig3Result) error {
	fmt.Fprintf(w, "ASes: %d; threshold (scaled from paper's 1000): %d\n", len(res.Points), res.Threshold)
	fmt.Fprintf(w, "ASes with hierarchy-free reach >= threshold: %d\n", res.HighReach)
	fmt.Fprintf(w, "ASes with customer cone >= threshold:        %d\n", res.HighCone)
	fmt.Fprintf(w, "Spearman rank correlation (cone vs reach):   %.3f\n", res.SpearmanRho)
	fmt.Fprintln(w, "scatter summary (cone bucket -> mean reach, count):")
	type bucket struct {
		sum, n int
	}
	buckets := map[int]*bucket{}
	for _, p := range res.Points {
		b := 0
		for c := p.Cone; c > 1; c /= 10 {
			b++
		}
		if buckets[b] == nil {
			buckets[b] = &bucket{}
		}
		buckets[b].sum += p.Reach
		buckets[b].n++
	}
	for b := 0; b < 6; b++ {
		if bk := buckets[b]; bk != nil {
			fmt.Fprintf(w, "  cone ~10^%d: mean reach %7.1f over %d ASes\n", b, float64(bk.sum)/float64(bk.n), bk.n)
		}
	}
	// Named spot checks the paper calls out (Sprint's rank collapse).
	sprintRank, coneRank := rankOf(res.Points, 1239)
	fmt.Fprintf(w, "Sprint: cone rank #%d vs hierarchy-free rank #%d\n", coneRank, sprintRank)
	return nil
}

// rankOf returns (reach rank, cone rank) of an AS, 1-indexed.
func rankOf(points []Fig3Point, a astopo.ASN) (reachRank, coneRank int) {
	var target Fig3Point
	found := false
	for _, p := range points {
		if p.AS == a {
			target, found = p, true
			break
		}
	}
	if !found {
		return 0, 0
	}
	reachRank, coneRank = 1, 1
	for _, p := range points {
		if p.Reach > target.Reach {
			reachRank++
		}
		if p.Cone > target.Cone {
			coneRank++
		}
	}
	return reachRank, coneRank
}

func spearman(xs, ys []int) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	rx := ranks(xs)
	ry := ranks(ys)
	var mx, my float64
	for i := 0; i < n; i++ {
		mx += rx[i]
		my += ry[i]
	}
	mx /= float64(n)
	my /= float64(n)
	var num, dx, dy float64
	for i := 0; i < n; i++ {
		a, b := rx[i]-mx, ry[i]-my
		num += a * b
		dx += a * a
		dy += b * b
	}
	if dx == 0 || dy == 0 {
		return 0
	}
	return num / math.Sqrt(dx*dy)
}

// ranks gives each value its 1-based rank in ascending order, ties taking
// the mean of the ranks they span. The values are counts (reach, cone
// sizes), so one counting pass over their span places every value without
// a sort.
func ranks(xs []int) []float64 {
	out := make([]float64, len(xs))
	if len(xs) == 0 {
		return out
	}
	lo, hi := slices.Min(xs), slices.Max(xs)
	// below[v-lo] becomes the number of values less than v.
	below := make([]int, hi-lo+2)
	for _, x := range xs {
		below[x-lo+1]++
	}
	for v := 1; v < len(below); v++ {
		below[v] += below[v-1]
	}
	for k, x := range xs {
		i, j := below[x-lo], below[x-lo+1]
		out[k] = float64(i+j-1)/2 + 1
	}
	return out
}

// Fig4Row breaks down one network's hierarchy-free-unreachable ASes by
// type.
type Fig4Row struct {
	Name        string
	AS          astopo.ASN
	Unreachable int
	ByType      map[population.ASType]int
}

// Fig4Networks is the paper's x-axis: the top four clouds and eight transit
// providers.
func Fig4Networks(in *topogen.Internet) []astopo.ASN {
	return []astopo.ASN{
		3356, 6939, in.Clouds["Google"], in.Clouds["Microsoft"], in.Clouds["IBM"],
		174, 6461, 1299, 3257, 2914, 7713, in.Clouds["Amazon"],
	}
}

// Fig4 tallies unreachable-AS types per provider. The twelve networks'
// unreachable sets come from one batch propagation, as dense indexes.
func Fig4(env *Env) ([]Fig4Row, error) {
	in := env.In2020
	nets := Fig4Networks(in)
	uns, err := env.M2020.Unreachable(context.Background(), nets, core.HierarchyFree)
	if err != nil {
		return nil, err
	}
	rows := make([]Fig4Row, len(nets))
	for i, a := range nets {
		rows[i] = Fig4Row{
			Name:        in.NameOf(a),
			AS:          a,
			Unreachable: len(uns[i]),
			ByType:      env.Pop2020.CountByType(uns[i]),
		}
	}
	return rows, nil
}

func printFig4(w io.Writer, _ *Env, rows []Fig4Row) error {
	types := []population.ASType{population.TypeContent, population.TypeTransit, population.TypeAccess, population.TypeEnterprise}
	fmt.Fprintf(w, "%-18s %12s %9s %9s %9s %10s\n", "network", "unreachable", "content", "transit", "access", "enterprise")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %12d", r.Name, r.Unreachable)
		for _, t := range types {
			pct := 0.0
			if r.Unreachable > 0 {
				pct = 100 * float64(r.ByType[t]) / float64(r.Unreachable)
			}
			fmt.Fprintf(w, " %7.1f%%", pct)
		}
		fmt.Fprintln(w)
	}
	return nil
}
