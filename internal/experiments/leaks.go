package experiments

import (
	"context"
	"fmt"
	"io"

	"flatnet/internal/astopo"
	"flatnet/internal/bgpsim"
	"flatnet/internal/topogen"
)

// leakTrialsPerConfig is the paper's 5,000 simulations per configuration
// cut to what keeps the CDFs stable on the grid below at every scale the
// presets are generated at (the count is fixed, not scaled with the graph).
const leakTrialsPerConfig = 400

// cdfGrid is where the detour CDFs are evaluated (percent of ASes).
var cdfGrid = []float64{0, 0.01, 0.02, 0.05, 0.10, 0.15, 0.20, 0.30, 0.40, 0.50, 0.75, 1.0}

// LeakCurve is one scenario's CDF.
type LeakCurve struct {
	Scenario bgpsim.LeakScenario
	// CDF[i] is the fraction of misconfigured ASes detouring at most
	// cdfGrid[i] of the Internet.
	CDF []float64
	// MeanDetoured is the average detoured fraction across trials.
	MeanDetoured float64
}

// LeakFigure is one panel of Figs. 7/8/9: all scenarios for one origin,
// plus the random-origin average-resilience baseline.
type LeakFigure struct {
	Origin        string
	OriginASN     astopo.ASN
	Curves        []LeakCurve
	AvgResilience float64
	// UserWeighted marks Fig. 9-style population weighting.
	UserWeighted bool
}

// Grid exposes the CDF evaluation points.
func (LeakFigure) Grid() []float64 { return cdfGrid }

// leakPanel replays the sampled leakers against every scenario for one
// origin and returns the trials, one slice per bgpsim.LeakScenarios entry.
func leakPanel(in *topogen.Internet, origin astopo.ASN, weights []float64) ([][]bgpsim.LeakTrial, error) {
	leakers := bgpsim.SampleLeakers(in.Graph, origin, leakTrialsPerConfig, int64(origin))
	// One explicit LeakSweep per scenario: each configuration's leak-free
	// pre-pass runs once, every trial replays against its snapshot, and the
	// batch engines behind Trials are pooled across scenarios.
	var panel [][]bgpsim.LeakTrial
	for _, scen := range bgpsim.LeakScenarios() {
		sweep, err := bgpsim.NewLeakSweep(in.Graph, bgpsim.ScenarioConfig(in.Graph, origin, in.Tier1, in.Tier2, scen))
		if err != nil {
			return nil, err
		}
		trials, err := sweep.Trials(context.Background(), leakers, weights)
		sweep.Release()
		if err != nil {
			return nil, err
		}
		panel = append(panel, trials)
	}
	return panel, nil
}

// LeakPanel is the 2020 leak panel for one origin, simulated once with the
// population weights supplied: a trial's DetouredFrac is the detour count
// over the AS count whether or not weights are given, so the same trials
// serve an AS-count figure (Fig. 8) and a user-weighted one (Fig. 9).
func (e *Env) LeakPanel(origin astopo.ASN) ([][]bgpsim.LeakTrial, error) {
	return memoize(e, fmt.Sprintf("leakpanel/%d", origin), func() ([][]bgpsim.LeakTrial, error) {
		weights, err := e.userWeights(2020)
		if err != nil {
			return nil, err
		}
		return leakPanel(e.In2020, origin, weights)
	})
}

// leakFigure projects one origin's panel onto AS counts or user population.
func leakFigure(env *Env, originName string, origin astopo.ASN, weighted bool) (*LeakFigure, error) {
	panel, err := env.LeakPanel(origin)
	if err != nil {
		return nil, err
	}
	asFrac, userFrac, err := env.AvgResilience(2020)
	if err != nil {
		return nil, err
	}
	fig := &LeakFigure{Origin: originName, OriginASN: origin, UserWeighted: weighted, AvgResilience: asFrac}
	if weighted {
		fig.AvgResilience = userFrac
	}
	for i, scen := range bgpsim.LeakScenarios() {
		curve := LeakCurve{Scenario: scen, CDF: bgpsim.CDF(panel[i], cdfGrid, weighted)}
		for _, tr := range panel[i] {
			if weighted {
				curve.MeanDetoured += tr.DetouredUserFrac
			} else {
				curve.MeanDetoured += tr.DetouredFrac
			}
		}
		curve.MeanDetoured /= float64(len(panel[i]))
		fig.Curves = append(fig.Curves, curve)
	}
	return fig, nil
}

// Fig7 runs the leak panels for Microsoft, Amazon, IBM, and Facebook.
func Fig7(env *Env) ([]*LeakFigure, error) {
	in := env.In2020
	panels := []struct {
		name string
		asn  astopo.ASN
	}{
		{"Microsoft", in.Clouds["Microsoft"]},
		{"Amazon", in.Clouds["Amazon"]},
		{"IBM", in.Clouds["IBM"]},
		{"Facebook", in.Hypergiants["Facebook"]},
	}
	var out []*LeakFigure
	for _, p := range panels {
		fig, err := leakFigure(env, p.name, p.asn, false)
		if err != nil {
			return nil, err
		}
		out = append(out, fig)
	}
	return out, nil
}

// Fig8 runs the Google panel.
func Fig8(env *Env) (*LeakFigure, error) {
	return leakFigure(env, "Google", env.In2020.Clouds["Google"], false)
}

// Fig9 runs the user-population-weighted Google panel.
func Fig9(env *Env) (*LeakFigure, error) {
	return leakFigure(env, "Google", env.In2020.Clouds["Google"], true)
}

// Fig10Result compares Google's announce-to-all resilience across years.
type Fig10Result struct {
	Grid               []float64
	CDF2015, CDF2020   []float64
	Mean2015, Mean2020 float64
}

// Fig10 runs the 2015-vs-2020 comparison.
func Fig10(env *Env) (*Fig10Result, error) {
	return memoize(env, "fig10", func() (*Fig10Result, error) { return fig10(env) })
}

func fig10(env *Env) (*Fig10Result, error) {
	run := func(in *topogen.Internet) ([]float64, float64, error) {
		origin := in.Clouds["Google"]
		leakers := bgpsim.SampleLeakers(in.Graph, origin, leakTrialsPerConfig, 77)
		sweep, err := bgpsim.NewLeakSweep(in.Graph, bgpsim.Config{Origin: origin})
		if err != nil {
			return nil, 0, err
		}
		trials, err := sweep.Trials(context.Background(), leakers, nil)
		sweep.Release()
		if err != nil {
			return nil, 0, err
		}
		var mean float64
		for _, tr := range trials {
			mean += tr.DetouredFrac
		}
		return bgpsim.CDF(trials, cdfGrid, false), mean / float64(len(trials)), nil
	}
	res := &Fig10Result{Grid: cdfGrid}
	var err error
	if res.CDF2015, res.Mean2015, err = run(env.In2015); err != nil {
		return nil, err
	}
	if res.CDF2020, res.Mean2020, err = run(env.In2020); err != nil {
		return nil, err
	}
	return res, nil
}

func renderLeakFigure(w io.Writer, fig *LeakFigure) {
	unit := "ASes"
	if fig.UserWeighted {
		unit = "users"
	}
	fmt.Fprintf(w, "%s (avg resilience baseline: %.3f of %s detoured on average)\n", fig.Origin, fig.AvgResilience, unit)
	fmt.Fprintf(w, "  %-38s", "scenario \\ detoured <=")
	for _, x := range cdfGrid {
		fmt.Fprintf(w, " %5.0f%%", 100*x)
	}
	fmt.Fprintf(w, " %8s\n", "mean")
	for _, c := range fig.Curves {
		fmt.Fprintf(w, "  %-38s", c.Scenario)
		for _, v := range c.CDF {
			fmt.Fprintf(w, " %5.2f ", v)
		}
		fmt.Fprintf(w, " %7.4f\n", c.MeanDetoured)
	}
}

func runFig7(env *Env, w io.Writer) error {
	figs, err := Fig7(env)
	if err != nil {
		return err
	}
	for _, f := range figs {
		renderLeakFigure(w, f)
	}
	return nil
}

// runLeakFigure renders a one-panel leak experiment (Figs. 8 and 9).
func runLeakFigure(fig func(*Env) (*LeakFigure, error)) func(*Env, io.Writer) error {
	return func(env *Env, w io.Writer) error {
		f, err := fig(env)
		if err != nil {
			return err
		}
		renderLeakFigure(w, f)
		return nil
	}
}

func runFig10(env *Env, w io.Writer) error {
	res, err := Fig10(env)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Google announce-to-all, mean detoured: 2015=%.4f 2020=%.4f\n", res.Mean2015, res.Mean2020)
	fmt.Fprintf(w, "%-10s", "detoured<=")
	for _, x := range res.Grid {
		fmt.Fprintf(w, " %5.0f%%", 100*x)
	}
	fmt.Fprintf(w, "\n%-10s", "2015")
	for _, v := range res.CDF2015 {
		fmt.Fprintf(w, " %5.2f ", v)
	}
	fmt.Fprintf(w, "\n%-10s", "2020")
	for _, v := range res.CDF2020 {
		fmt.Fprintf(w, " %5.2f ", v)
	}
	fmt.Fprintln(w)
	return nil
}
