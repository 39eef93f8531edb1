package experiments

import (
	"bytes"
	"math"
	"math/rand"
	"sync"
	"testing"

	"flatnet/internal/astopo"
	"flatnet/internal/bgpsim"
	"flatnet/internal/core"
)

// The shared env is expensive (two topologies plus lazy traceroute
// corpora); build it once for the whole test binary.
var (
	testEnvOnce sync.Once
	testEnv     *Env
	testEnvErr  error
)

func getEnv(t *testing.T) *Env {
	t.Helper()
	testEnvOnce.Do(func() {
		testEnv, testEnvErr = NewEnv(0.0285)
	})
	if testEnvErr != nil {
		t.Fatal(testEnvErr)
	}
	return testEnv
}

// registryRun is what one registry entry gave on the shared Env: its text
// and its table builder (nil for text-only experiments).
type registryRun struct {
	text  bytes.Buffer
	build func() []Table
	err   error
}

// The registry is run once per test binary; TestRegistryRunsAll and
// TestTablesForAllCSVers both check that one pass.
var (
	registryOnce sync.Once
	registryRuns map[string]*registryRun
)

func getRegistryRuns(t *testing.T) map[string]*registryRun {
	t.Helper()
	env := getEnv(t)
	registryOnce.Do(func() {
		registryRuns = map[string]*registryRun{}
		for _, r := range Registry {
			if _, dup := registryRuns[r.ID]; dup {
				continue
			}
			run := &registryRun{}
			run.build, run.err = r.Run(env, &run.text)
			registryRuns[r.ID] = run
		}
	})
	return registryRuns
}

// Ids are unique and found by ByID, and every experiment prints text.
func TestRegistryRunsAll(t *testing.T) {
	runs := getRegistryRuns(t)
	seen := map[string]bool{}
	for _, r := range Registry {
		if seen[r.ID] {
			t.Fatalf("duplicate experiment id %q", r.ID)
		}
		seen[r.ID] = true
		if got, ok := ByID(r.ID); !ok || got.Title != r.Title {
			t.Errorf("ByID(%s) does not find its entry", r.ID)
		}
		run := runs[r.ID]
		if run.err != nil {
			t.Fatalf("%s: %v", r.ID, run.err)
		}
		if run.text.Len() == 0 {
			t.Errorf("%s produced no output", r.ID)
		}
	}
	if len(seen) < 19 {
		t.Errorf("only %d experiments registered", len(seen))
	}
	if !seen["fig11"] {
		t.Error("fig11 not registered")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID accepted unknown id")
	}
}

// Every CSV builder lays out named, non-empty tables whose rows match their
// headers and encode as CSV. Fig. 11's map has no tables.
func TestTablesForAllCSVers(t *testing.T) {
	runs := getRegistryRuns(t)
	n := 0
	for _, r := range Registry {
		run := runs[r.ID]
		if run.err != nil {
			t.Fatalf("%s: %v", r.ID, run.err)
		}
		if run.build == nil {
			continue
		}
		n++
		tables := run.build()
		if len(tables) == 0 {
			t.Errorf("%s: no tables", r.ID)
		}
		for _, tbl := range tables {
			if tbl.Name == "" || len(tbl.Header) == 0 || len(tbl.Rows) == 0 {
				t.Errorf("%s/%s: empty table", r.ID, tbl.Name)
				continue
			}
			for i, row := range tbl.Rows {
				if len(row) != len(tbl.Header) {
					t.Errorf("%s/%s row %d: %d cells, header has %d", r.ID, tbl.Name, i, len(row), len(tbl.Header))
					break
				}
			}
			var buf bytes.Buffer
			if err := tbl.WriteCSV(&buf); err != nil {
				t.Errorf("%s/%s: %v", r.ID, tbl.Name, err)
			}
		}
	}
	if n < 16 {
		t.Errorf("only %d experiments have CSV output", n)
	}
	if run, ok := runs["fig11"]; !ok || run.build != nil {
		t.Error("fig11 (map-only) should have no CSV output")
	}
}

func TestFig2Shape(t *testing.T) {
	env := getEnv(t)
	rows, err := Fig2(env)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Fig2Row{}
	for _, r := range rows {
		byName[r.Name] = r
		if r.ProviderFree < r.Tier1Free || r.Tier1Free < r.HierarchyFree {
			t.Errorf("%s: reachability not monotone under growing exclusions: %d %d %d",
				r.Name, r.ProviderFree, r.Tier1Free, r.HierarchyFree)
		}
		// The hierarchy-free column is read off the shared all-AS sweep; a
		// scalar propagation for the row must agree.
		if n, err := env.M2020.Reachability(r.AS, core.HierarchyFree); err != nil || n != r.HierarchyFree {
			t.Errorf("%s: hierarchy-free from the sweep = %d, scalar = %d (%v)", r.Name, r.HierarchyFree, n, err)
		}
	}
	// And so it must for the same networks on the 2015 preset's sweep.
	sweep15, err := env.SweepAll(2015, core.HierarchyFree)
	if err != nil {
		t.Fatal(err)
	}
	in15 := env.In2015
	for _, a := range append(append(in15.Tier1.Slice(), in15.Tier2.Slice()...), in15.Clouds["Google"], in15.Clouds["Amazon"]) {
		i, _ := in15.Graph.Index(a)
		if n, err := env.M2015.Reachability(a, core.HierarchyFree); err != nil || n != sweep15[i] {
			t.Errorf("2015 AS%d: hierarchy-free from the sweep = %d, scalar = %d (%v)", a, sweep15[i], n, err)
		}
	}
	total := env.In2020.Graph.NumASes() - 1
	// Tier-1s have no providers: provider-free reachability is maximal.
	if byName["Level 3"].ProviderFree != total {
		t.Errorf("Level 3 provider-free = %d, want %d", byName["Level 3"].ProviderFree, total)
	}
	// The clouds sit in the upper tier of hierarchy-free reachability
	// (paper: 3 of the top 5).
	googleRank := 0
	for i, r := range rows {
		if r.Name == "Google" {
			googleRank = i + 1
		}
	}
	if googleRank == 0 || googleRank > 5 {
		t.Errorf("Google hierarchy-free rank among Fig2 networks = %d, want top 5", googleRank)
	}
	// Clouds beat the hierarchy-reliant Tier-1s.
	if byName["Google"].HierarchyFree <= byName["Sprint"].HierarchyFree {
		t.Error("Google does not beat Sprint on hierarchy-free reachability")
	}
}

func TestTable1Shape(t *testing.T) {
	env := getEnv(t)
	res, err := Table1(env, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Top2020) != 20 || len(res.Top2015) != 20 {
		t.Fatalf("top lists: %d/%d", len(res.Top2015), len(res.Top2020))
	}
	// 2020: all four clouds near the top (paper: all in top 20, three in
	// top 5).
	for _, c := range Clouds() {
		r := res.CloudRanks2020[c]
		if r.Rank == 0 || r.Rank > 25 {
			t.Errorf("2020: %s rank = %d, want <= 25", c, r.Rank)
		}
	}
	// 2015: Amazon and Microsoft far down the ranking (paper: #206, #62).
	if r := res.CloudRanks2015["Amazon"]; r.Rank < 30 {
		t.Errorf("2015 Amazon rank = %d, want >> 20", r.Rank)
	}
	if g, m := res.CloudRanks2015["Google"], res.CloudRanks2015["Microsoft"]; g.Rank >= m.Rank {
		t.Errorf("2015: Google (#%d) should outrank Microsoft (#%d)", g.Rank, m.Rank)
	}
	// Reachability grew between years for the clouds.
	for _, c := range Clouds() {
		if res.CloudRanks2020[c].Pct <= res.CloudRanks2015[c].Pct {
			t.Errorf("%s hierarchy-free %% did not grow: %.1f -> %.1f",
				c, res.CloudRanks2015[c].Pct, res.CloudRanks2020[c].Pct)
		}
	}
}

func TestFig3Shape(t *testing.T) {
	env := getEnv(t)
	res, err := Fig3(env)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's headline asymmetry: many networks reach far more than
	// their customer cones suggest (8,374 vs 51 at the same threshold).
	if res.HighReach < res.HighCone*10 {
		t.Errorf("high-reach ASes (%d) not >> high-cone ASes (%d)", res.HighReach, res.HighCone)
	}
	// Weak overall correlation outside the hierarchy; allow wide range
	// but it must not be ~1.
	if res.SpearmanRho > 0.9 {
		t.Errorf("cone and reach almost perfectly correlated (rho=%.2f)", res.SpearmanRho)
	}
	reachRank, coneRank := rankOf(res.Points, 1239)
	if reachRank <= coneRank {
		t.Errorf("Sprint: hierarchy-free rank (%d) should be far below cone rank (%d)", reachRank, coneRank)
	}
}

func TestFig4Shape(t *testing.T) {
	env := getEnv(t)
	rows, err := Fig4(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Unreachable == 0 {
			t.Errorf("%s: zero unreachable", r.Name)
			continue
		}
		sum := 0
		for _, n := range r.ByType {
			sum += n
		}
		if sum != r.Unreachable {
			t.Errorf("%s: type counts sum %d != %d", r.Name, sum, r.Unreachable)
		}
	}
}

func TestFig6Table2Shape(t *testing.T) {
	env := getEnv(t)
	figs, err := Fig6(env)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range figs {
		// §7.2: most networks have reliance ~1 (near the flat extreme).
		if f.Bins[0] == 0 {
			t.Errorf("%s: empty lowest bin", f.Cloud)
		}
		var total int
		for _, n := range f.Bins {
			total += n
		}
		if frac := float64(f.Bins[0]) / float64(total); frac < 0.8 {
			t.Errorf("%s: only %.2f of ASes in the lowest reliance bin; expected near-flat", f.Cloud, frac)
		}
	}
	rows, err := Table2(env)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if len(r.Top) != 3 {
			t.Errorf("%s: top-%d reliance", r.Cloud, len(r.Top))
		}
	}
}

func TestLeakFigureShape(t *testing.T) {
	env := getEnv(t)
	fig, err := Fig8(env)
	if err != nil {
		t.Fatal(err)
	}
	means := map[bgpsim.LeakScenario]float64{}
	for _, c := range fig.Curves {
		means[c.Scenario] = c.MeanDetoured
		// CDFs are monotone and end at 1.
		for i := 1; i < len(c.CDF); i++ {
			if c.CDF[i] < c.CDF[i-1] {
				t.Errorf("%v: CDF not monotone", c.Scenario)
			}
		}
		if c.CDF[len(c.CDF)-1] < 0.999 {
			t.Errorf("%v: CDF does not reach 1", c.Scenario)
		}
	}
	if !(means[bgpsim.AnnounceAllLockAll] <= means[bgpsim.AnnounceAllLockT1T2] &&
		means[bgpsim.AnnounceAllLockT1T2] <= means[bgpsim.AnnounceAllLockT1] &&
		means[bgpsim.AnnounceAllLockT1] <= means[bgpsim.AnnounceAll]) {
		t.Errorf("locking does not monotonically help: %v", means)
	}
	if means[bgpsim.AnnounceHierarchy] <= means[bgpsim.AnnounceAll] {
		t.Error("hierarchy-only announcement should be less resilient than announce-to-all")
	}
	// Google's announce-to-all should beat the random-origin baseline.
	if means[bgpsim.AnnounceAll] >= fig.AvgResilience {
		t.Errorf("Google announce-to-all mean %.4f not below baseline %.4f",
			means[bgpsim.AnnounceAll], fig.AvgResilience)
	}
}

func TestFig12Shape(t *testing.T) {
	env := getEnv(t)
	res, err := Fig12(env)
	if err != nil {
		t.Fatal(err)
	}
	findRow := func(rows []Fig12Row, label string) Fig12Row {
		for _, r := range rows {
			if r.Label == label {
				return r
			}
		}
		t.Fatalf("row %q missing", label)
		return Fig12Row{}
	}
	cw := findRow(res.CloudByContinent, "World")
	tw := findRow(res.TransitByContinent, "World")
	// Coverage monotone in radius.
	for _, r := range append(res.CloudByContinent, res.PerProvider...) {
		if !(r.Coverage[0] <= r.Coverage[1]+1e-9 && r.Coverage[1] <= r.Coverage[2]+1e-9) {
			t.Errorf("%s: coverage not monotone: %v", r.Label, r.Coverage)
		}
	}
	// Transit union covers at least as much as clouds worldwide (paper:
	// clouds slightly behind, ~4-5 points).
	if cw.Coverage[0] > tw.Coverage[0]+2 {
		t.Errorf("cloud world coverage (%.1f) above transit (%.1f)", cw.Coverage[0], tw.Coverage[0])
	}
	if tw.Coverage[0]-cw.Coverage[0] > 25 {
		t.Errorf("cloud world coverage too far behind transit: %.1f vs %.1f", cw.Coverage[0], tw.Coverage[0])
	}
}

func TestFig13Shape(t *testing.T) {
	env := getEnv(t)
	cells, err := Fig13(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 24 { // 4 clouds x 2 years x 3 weightings
		t.Fatalf("got %d cells", len(cells))
	}
	get := func(cloud string, year int, wt Fig13Weighting) Fig13Cell {
		for _, c := range cells {
			if c.Cloud == cloud && c.Year == year && c.Weighting == wt {
				return c
			}
		}
		t.Fatalf("cell missing")
		return Fig13Cell{}
	}
	for _, c := range cells {
		sum := c.Pct[0] + c.Pct[1] + c.Pct[2]
		if math.Abs(sum-100) > 0.5 {
			t.Errorf("%s/%d/%v: percentages sum to %.1f", c.Cloud, c.Year, c.Weighting, sum)
		}
	}
	// Google reaches a much larger user share directly than Amazon
	// (paper: 61.6% vs 17.8% in 2020).
	g := get("Google", 2020, WeightUsers)
	a := get("Amazon", 2020, WeightUsers)
	if g.Pct[0] <= a.Pct[0] {
		t.Errorf("Google direct user share (%.1f) not above Amazon (%.1f)", g.Pct[0], a.Pct[0])
	}
}

func TestAppAShape(t *testing.T) {
	env := getEnv(t)
	rows, err := AppA(env)
	if err != nil {
		t.Fatal(err)
	}
	byCloud := map[string]AppARow{}
	for _, r := range rows {
		byCloud[r.Cloud] = r
		if r.Traces == 0 {
			t.Fatalf("%s: no traces", r.Cloud)
		}
		if r.Contained < 0.5 {
			t.Errorf("%s: containment %.2f too low", r.Cloud, r.Contained)
		}
	}
	// Appendix A: Amazon's early exit gives it the lowest containment.
	if byCloud["Amazon"].Contained >= byCloud["Google"].Contained {
		t.Errorf("Amazon containment (%.3f) should be below Google's (%.3f)",
			byCloud["Amazon"].Contained, byCloud["Google"].Contained)
	}
}

func TestSec41Shape(t *testing.T) {
	env := getEnv(t)
	rows, err := Sec41(env)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Combined <= r.FeedOnly {
			t.Errorf("%s: augmentation added nothing (%d -> %d)", r.Cloud, r.FeedOnly, r.Combined)
		}
		if r.MissedFrac < 0.4 {
			t.Errorf("%s: feed misses only %.2f of neighbors; expected a large blind spot", r.Cloud, r.MissedFrac)
		}
	}
}

func TestAblationShape(t *testing.T) {
	env := getEnv(t)
	rows, err := Ablation(env)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !(r.FeedOnlyPct <= r.AugmentedPct+1e-9) {
			t.Errorf("%s: augmentation reduced reachability: %.1f -> %.1f", r.Cloud, r.FeedOnlyPct, r.AugmentedPct)
		}
		if r.AugmentedPct-r.FeedOnlyPct < 5 {
			t.Errorf("%s: augmentation gained only %.1f points; the paper's central claim is a large gain",
				r.Cloud, r.AugmentedPct-r.FeedOnlyPct)
		}
	}
}

func TestAppBShape(t *testing.T) {
	env := getEnv(t)
	rows, err := AppB(env)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.HierarchyFreeReach >= r.Tier1FreeReach {
			t.Errorf("%s: hierarchy-free (%d) not below Tier-1-free (%d)",
				r.Name, r.HierarchyFreeReach, r.Tier1FreeReach)
		}
		if len(r.TopTier2) == 0 {
			t.Errorf("%s: no Tier-2 reliance entries", r.Name)
		}
		// Bypassing just the top Tier-2s should explain most of the drop
		// (the counterfactual sits near the full hierarchy-free value).
		drop := r.Tier1FreeReach - r.HierarchyFreeReach
		explained := r.Tier1FreeReach - r.BypassTopTier2Reach
		if float64(explained) < 0.5*float64(drop) {
			t.Errorf("%s: top-6 Tier-2s explain only %d of %d drop", r.Name, explained, drop)
		}
	}
}

func TestTiesAblationShape(t *testing.T) {
	env := getEnv(t)
	rows, err := TiesAblation(env)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.MeanBroken > r.MeanTies+1e-9 {
			t.Errorf("%s: tie-broken mean detours (%.4f) exceed worst-case (%.4f)", r.Cloud, r.MeanBroken, r.MeanTies)
		}
		if r.ReachTies != r.ReachBroken {
			t.Errorf("%s: reachability depends on tie handling (%d vs %d)", r.Cloud, r.ReachTies, r.ReachBroken)
		}
	}
}

func TestSensitivityShape(t *testing.T) {
	env := getEnv(t)
	rows, err := Sensitivity(env)
	if err != nil {
		t.Fatal(err)
	}
	for _, cloud := range Clouds() {
		base, ok := sensitivityBaseline(rows, cloud)
		if !ok {
			t.Fatalf("%s: no zero-miss row", cloud)
		}
		want, err := env.M2020.Reachability(env.In2020.Clouds[cloud], core.HierarchyFree)
		if err != nil {
			t.Fatal(err)
		}
		if base.Reach != want {
			t.Errorf("%s: zero-miss reach %d != headline %d", cloud, base.Reach, want)
		}
		// Reachability must be non-increasing in the miss fraction.
		prev := -1
		prevFrac := -1.0
		for _, r := range rows {
			if r.Cloud != cloud {
				continue
			}
			if prev >= 0 && r.MissFrac > prevFrac && r.Reach > prev {
				t.Errorf("%s: reach grew from %d to %d as miss rose to %.0f%%",
					cloud, prev, r.Reach, 100*r.MissFrac)
			}
			prev, prevFrac = r.Reach, r.MissFrac
		}
	}
}

// Every sensitivity row must equal the metric on a rebuilt graph that
// lacks the hidden peer links: the same nested permutation and seed,
// core.New over the degraded links, and the rebuilt graph's own AS count
// as the denominator. This fails if the allow-list or the denominator is
// wrong.
func TestSensitivityMatchesRebuild(t *testing.T) {
	env := getEnv(t)
	in := env.In2020
	rows, err := Sensitivity(env)
	if err != nil {
		t.Fatal(err)
	}
	links := in.Graph.Links()
	k := 0
	for _, cloud := range Clouds() {
		asn := in.Clouds[cloud]
		peers := in.Graph.Peers(asn)
		perm := rand.New(rand.NewSource(int64(asn))).Perm(len(peers))
		drop := make(map[astopo.ASN]bool, len(peers))
		for _, frac := range sensitivityFractions {
			for i := 0; i < int(frac*float64(len(peers))); i++ {
				drop[peers[perm[i]]] = true
			}
			g := astopo.FromLinks(degradedLinks(links, asn, drop))
			m := core.New(core.Dataset{Graph: g, Tier1: in.Tier1, Tier2: in.Tier2})
			want, err := m.Reachability(asn, core.HierarchyFree)
			if err != nil {
				t.Fatalf("%s at %.0f%%: %v", cloud, 100*frac, err)
			}
			wantPct := 100 * float64(want) / float64(g.NumASes()-1)
			r := rows[k]
			k++
			if r.Cloud != cloud || r.MissFrac != frac {
				t.Fatalf("row %d is %s at %.0f%%, want %s at %.0f%%", k-1, r.Cloud, 100*r.MissFrac, cloud, 100*frac)
			}
			if r.Reach != want || r.Pct != wantPct {
				t.Errorf("%s at %.0f%%: reach %d (%.4f%%), rebuild %d (%.4f%%)",
					cloud, 100*frac, r.Reach, r.Pct, want, wantPct)
			}
		}
	}
	if k != len(rows) {
		t.Errorf("%d rows, want %d", len(rows), k)
	}
}

// degradedLinks returns the topology's links minus asn's peer links to the
// dropped neighbors.
func degradedLinks(links []astopo.Link, asn astopo.ASN, drop map[astopo.ASN]bool) []astopo.Link {
	var out []astopo.Link
	for _, l := range links {
		if l.Rel == astopo.P2P && ((l.A == asn && drop[l.B]) || (l.B == asn && drop[l.A])) {
			continue
		}
		out = append(out, l)
	}
	return out
}

func TestHijackShape(t *testing.T) {
	env := getEnv(t)
	rows, err := Hijack(env)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.HijackMean < r.LeakMean {
			t.Errorf("%s: hijack mean (%.4f) below leak mean (%.4f)", r.Cloud, r.HijackMean, r.LeakMean)
		}
		if r.LockedHijackMean > r.HijackMean {
			t.Errorf("%s: T1+T2 locking made hijacks worse (%.4f > %.4f)",
				r.Cloud, r.LockedHijackMean, r.HijackMean)
		}
	}
}
