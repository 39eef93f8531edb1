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

// panelJobs are one origin's leak jobs, one per bgpsim.LeakScenarios
// entry, all replaying the same sampled leakers.
func panelJobs(in *topogen.Internet, origin astopo.ASN, weights []float64) []bgpsim.LeakJob {
	leakers := bgpsim.SampleLeakers(in.Graph, origin, leakTrialsPerConfig, int64(origin))
	var jobs []bgpsim.LeakJob
	for _, scen := range bgpsim.LeakScenarios() {
		jobs = append(jobs, bgpsim.LeakJob{
			Graph:   in.Graph,
			Config:  bgpsim.ScenarioConfig(in.Graph, origin, in.Tier1, in.Tier2, scen),
			Leakers: leakers,
			Weights: weights,
		})
	}
	return jobs
}

// leakPanel replays the sampled leakers against every scenario for one
// origin and returns the trials, one slice per bgpsim.LeakScenarios entry.
func leakPanel(in *topogen.Internet, origin astopo.ASN, weights []float64) ([][]bgpsim.LeakTrial, error) {
	return bgpsim.RunLeakJobs(context.Background(), panelJobs(in, origin, weights))
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
func leakFigure(env *Env, originName string, origin astopo.ASN, panel [][]bgpsim.LeakTrial, weighted bool) (*LeakFigure, error) {
	asFrac, userFrac, err := env.AvgResilience(2020)
	if err != nil {
		return nil, err
	}
	fig := &LeakFigure{Origin: originName, OriginASN: origin, UserWeighted: weighted, AvgResilience: asFrac}
	if weighted {
		fig.AvgResilience = userFrac
	}
	for i, scen := range bgpsim.LeakScenarios() {
		fig.Curves = append(fig.Curves, LeakCurve{
			Scenario:     scen,
			CDF:          bgpsim.CDF(panel[i], cdfGrid, weighted),
			MeanDetoured: bgpsim.SummarizeDetours(bgpsim.DetourFracs(panel[i], weighted)).Mean,
		})
	}
	return fig, nil
}

// googleFigure is Google's panel read by AS count (Fig. 8) or by user
// population (Fig. 9).
func googleFigure(env *Env, weighted bool) (*LeakFigure, error) {
	google := env.In2020.Clouds["Google"]
	panel, err := env.LeakPanel(google)
	if err != nil {
		return nil, err
	}
	return leakFigure(env, "Google", google, panel, weighted)
}

// Fig7 runs the leak panels for Microsoft, Amazon, IBM, and Facebook: the
// four origins' five scenarios as one unweighted 20-job RunLeakJobs call,
// since the figure reads AS counts only.
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
	var jobs []bgpsim.LeakJob
	for _, p := range panels {
		jobs = append(jobs, panelJobs(in, p.asn, nil)...)
	}
	trials, err := bgpsim.RunLeakJobs(context.Background(), jobs)
	if err != nil {
		return nil, err
	}
	nScen := len(bgpsim.LeakScenarios())
	var out []*LeakFigure
	for i, p := range panels {
		fig, err := leakFigure(env, p.name, p.asn, trials[i*nScen:(i+1)*nScen], false)
		if err != nil {
			return nil, err
		}
		out = append(out, fig)
	}
	return out, nil
}

// Fig8 runs the Google panel.
func Fig8(env *Env) (*LeakFigure, error) { return googleFigure(env, false) }

// Fig9 runs the user-population-weighted Google panel.
func Fig9(env *Env) (*LeakFigure, error) { return googleFigure(env, true) }

// Fig10Result compares Google's announce-to-all resilience across years.
type Fig10Result struct {
	Grid               []float64
	CDF2015, CDF2020   []float64
	Mean2015, Mean2020 float64
}

// Fig10 runs the 2015-vs-2020 comparison: both years' announce-to-all
// trials as one two-job RunLeakJobs call, a job per world.
func Fig10(env *Env) (*Fig10Result, error) {
	var jobs []bgpsim.LeakJob
	for _, in := range []*topogen.Internet{env.In2015, env.In2020} {
		origin := in.Clouds["Google"]
		jobs = append(jobs, bgpsim.LeakJob{
			Graph:   in.Graph,
			Config:  bgpsim.Config{Origin: origin},
			Leakers: bgpsim.SampleLeakers(in.Graph, origin, leakTrialsPerConfig, 77),
		})
	}
	trials, err := bgpsim.RunLeakJobs(context.Background(), jobs)
	if err != nil {
		return nil, err
	}
	curve := func(trials []bgpsim.LeakTrial) ([]float64, float64) {
		return bgpsim.CDF(trials, cdfGrid, false), bgpsim.SummarizeDetours(bgpsim.DetourFracs(trials, false)).Mean
	}
	res := &Fig10Result{Grid: cdfGrid}
	res.CDF2015, res.Mean2015 = curve(trials[0])
	res.CDF2020, res.Mean2020 = curve(trials[1])
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

// printLeakFigures renders the panels of a leak experiment (Figs. 7–9).
func printLeakFigures(w io.Writer, _ *Env, figs []*LeakFigure) error {
	for _, f := range figs {
		renderLeakFigure(w, f)
	}
	return nil
}

// panels lifts a one-panel leak experiment (Figs. 8 and 9) to the panel
// list Fig. 7's text and CSV take.
func panels(fig func(*Env) (*LeakFigure, error)) func(*Env) ([]*LeakFigure, error) {
	return func(env *Env) ([]*LeakFigure, error) {
		f, err := fig(env)
		if err != nil {
			return nil, err
		}
		return []*LeakFigure{f}, nil
	}
}

func printFig10(w io.Writer, _ *Env, res *Fig10Result) error {
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
