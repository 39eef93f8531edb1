package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sync"
	"testing"

	"flatnet/internal/bgpsim"
	"flatnet/internal/core"
)

func render(t *testing.T, env *Env, r Runner) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := r.Run(env, &buf); err != nil {
		t.Errorf("%s: %v", r.ID, err)
	}
	return buf.Bytes()
}

// runOutdir runs one experiment the way `flatnet run -outdir` does: its
// text, then its CSV tables from the same result.
func runOutdir(t *testing.T, env *Env, id string) {
	t.Helper()
	r, _ := ByID(id)
	tables, err := r.Run(env, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if tables == nil {
		t.Fatalf("%s has no CSV output", id)
	}
	tables()
}

// Every experiment must print the same bytes whether it finds the scope's
// derived results already built by another experiment (in any order, or
// while the others are still running) or builds them itself in a scope of
// its own — and whoever ran before it must have left them as built.
func TestMemoizedMatchesFresh(t *testing.T) {
	base := getEnv(t)
	want := make(map[string][]byte, len(Registry))
	for _, r := range Registry {
		want[r.ID] = render(t, base.Fresh(), r)
	}
	check := func(pass string, r Runner, got []byte) {
		if !bytes.Equal(got, want[r.ID]) {
			t.Errorf("%s, %s pass: shared scope printed\n%s\nfresh scope printed\n%s", r.ID, pass, got, want[r.ID])
		}
	}

	forward := base.Fresh()
	for _, r := range Registry {
		check("registry-order", r, render(t, forward, r))
	}
	reversed := base.Fresh()
	for i := len(Registry) - 1; i >= 0; i-- {
		check("reversed", Registry[i], render(t, reversed, Registry[i]))
	}
	concurrent := base.Fresh()
	got := make([][]byte, len(Registry))
	var wg sync.WaitGroup
	for i, r := range Registry {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = render(t, concurrent, r)
		}()
	}
	wg.Wait()
	for i, r := range Registry {
		check("concurrent", r, got[i])
	}

	// Read-only contract: after every experiment has read them, the
	// memoized slices still hold exactly what a build produces.
	google := base.In2020.Clouds["Google"]
	for _, env := range []*Env{forward, reversed, concurrent} {
		for year, m := range map[int]*core.Metrics{2020: base.M2020, 2015: base.M2015} {
			memo, err := env.SweepAll(year, core.HierarchyFree)
			if err != nil {
				t.Fatal(err)
			}
			built, err := m.ReachabilityAll(core.HierarchyFree)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(memo, built) {
				t.Errorf("%d hierarchy-free sweep was modified after it was memoized", year)
			}
		}
		memo, err := env.LeakPanel(google)
		if err != nil {
			t.Fatal(err)
		}
		built, err := base.Fresh().LeakPanel(google)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(memo, built) {
			t.Error("Google's leak panel was modified after it was memoized")
		}
	}
}

// One pass over the figures that share propagations — run the way
// `flatnet run -outdir` runs them, text then CSV — builds each shared result
// exactly once.
func TestDerivedResultsBuiltOnce(t *testing.T) {
	env := getEnv(t).Fresh()
	for _, id := range []string{"fig2", "table1", "fig3", "fig7", "fig8", "fig9", "fig10", "hijack"} {
		runOutdir(t, env, id)
	}
	google := env.In2020.Clouds["Google"]
	for prefix, want := range map[string]int{
		"avgres/":                           1, // was 6: once per leak panel
		"sweep/2020/":                       1, // was 2, plus Fig. 2's per-row propagations
		"sweep/2015/":                       1,
		fmt.Sprintf("leakpanel/%d", google): 1, // was 2: Fig. 8 and Fig. 9
		"leakpanel/":                        1, // Google's alone: Fig. 7 runs its own jobs
		"weights/2020":                      1, // was 6: once per panel and once for the baseline
	} {
		if got := env.builds(prefix); got != want {
			t.Errorf("%d builds under %q, want %d", got, prefix, want)
		}
	}
}

// Fig. 6 and Table 2 read the same four reliance vectors through the
// scope: each alone computes every cloud's once, their text and CSV run on
// one scope compute it once in all, and the shared summaries stay as
// built.
func TestRelianceBuiltOncePerCloud(t *testing.T) {
	run := func(env *Env, ids ...string) {
		for _, id := range ids {
			runOutdir(t, env, id)
		}
		if got, want := env.builds("reliance/"), len(Clouds()); got != want {
			t.Errorf("%v computed %d reliance vectors, want %d", ids, got, want)
		}
	}
	run(getEnv(t).Fresh(), "fig6")
	run(getEnv(t).Fresh(), "table2")
	env := getEnv(t).Fresh()
	run(env, "fig6", "table2")
	for _, c := range Clouds() {
		asn := env.In2020.Clouds[c]
		if got := env.builds(fmt.Sprintf("reliance/%d", asn)); got != 1 {
			t.Errorf("%s: %d reliance builds, want 1", c, got)
		}
		memo, err := env.reliance(c)
		if err != nil {
			t.Fatal(err)
		}
		entries, err := env.M2020.Reliance(asn, core.HierarchyFree)
		if err != nil {
			t.Fatal(err)
		}
		hist := fig6Result(c, asn, entries)
		top, err := env.M2020.TopReliance(asn, core.HierarchyFree, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(memo, relianceSummary{hist: hist, top: top}) {
			t.Errorf("%s: reliance summary was modified after it was memoized", c)
		}
	}
}

// §4.1 and the ablation read one feed view: run on one scope, they collect
// it once, on the year's one destination sweep.
func TestFeedViewCollectedOnce(t *testing.T) {
	env := getEnv(t).Fresh()
	for _, id := range []string{"sec41", "ablation"} {
		r, _ := ByID(id)
		render(t, env, r)
	}
	if got := env.builds("destsweep/"); got != 1 {
		t.Errorf("sec41 and ablation ran %d destination sweeps, want 1", got)
	}
}

// Fig. 8 is Fig. 9's run read by AS count: its curves must equal both the
// unweighted projection of the shared trials and a run of the same panel
// that was never given weights, and the baseline's AS fraction must not
// depend on the weights either.
func TestFig8IsUnweightedProjectionOfFig9Run(t *testing.T) {
	env := getEnv(t).Fresh()
	in := env.In2020
	google := in.Clouds["Google"]
	fig8, err := Fig8(env)
	if err != nil {
		t.Fatal(err)
	}
	fig9, err := Fig9(env)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := env.LeakPanel(google)
	if err != nil {
		t.Fatal(err)
	}
	unweighted, err := leakPanel(in, google, nil)
	if err != nil {
		t.Fatal(err)
	}
	if env.builds("leakpanel/") != 1 {
		t.Fatalf("Fig. 8 and Fig. 9 ran %d panels, want one shared", env.builds("leakpanel/"))
	}
	for i, scen := range bgpsim.LeakScenarios() {
		for k := range shared[i] {
			if shared[i][k].Leaker != unweighted[i][k].Leaker || shared[i][k].DetouredFrac != unweighted[i][k].DetouredFrac {
				t.Fatalf("%s trial %d: weighted run %+v, unweighted run %+v", scen, k, shared[i][k], unweighted[i][k])
			}
		}
		for name, trials := range map[string][]bgpsim.LeakTrial{"shared": shared[i], "unweighted-only": unweighted[i]} {
			if cdf := bgpsim.CDF(trials, cdfGrid, false); !reflect.DeepEqual(cdf, fig8.Curves[i].CDF) {
				t.Errorf("%s: Fig. 8 CDF %v, %s trials give %v", scen, fig8.Curves[i].CDF, name, cdf)
			}
		}
		if cdf := bgpsim.CDF(shared[i], cdfGrid, true); !reflect.DeepEqual(cdf, fig9.Curves[i].CDF) {
			t.Errorf("%s: Fig. 9 CDF %v, shared trials give %v", scen, fig9.Curves[i].CDF, cdf)
		}
	}
	asFrac, userFrac, err := bgpsim.AverageResilience(in.Graph, 20, 20, 0xA0E5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if asFrac != fig8.AvgResilience || userFrac != 0 {
		t.Errorf("unweighted baseline = (%v, %v), Fig. 8 draws %v", asFrac, userFrac, fig8.AvgResilience)
	}
	if fig9.AvgResilience == fig8.AvgResilience {
		t.Error("Fig. 9's baseline is not user-weighted")
	}
}

// A failed build leaves nothing behind: the next demand builds again, and
// only the success is kept.
func TestFailedBuildNotMemoized(t *testing.T) {
	env := getEnv(t).Fresh()
	calls := 0
	build := func() (int, error) {
		calls++
		if calls == 1 {
			return 0, errors.New("induced")
		}
		return 42, nil
	}
	if _, err := memoize(env, "k", build); err == nil {
		t.Fatal("build error not returned")
	}
	for i := 0; i < 2; i++ {
		if v, err := memoize(env, "k", build); err != nil || v != 42 {
			t.Fatalf("demand %d after the failure = (%v, %v), want 42", i+1, v, err)
		}
	}
	if calls != 2 || env.builds("k") != 1 {
		t.Errorf("build ran %d times with %d successes kept, want 2 and 1", calls, env.builds("k"))
	}
}
