package experiments

import (
	"context"
	"fmt"
	"io"

	"flatnet/internal/bgpsim"
	"flatnet/internal/core"
)

// TiesAblationRow compares leak exposure for one cloud with the paper's
// keep-all-ties rule against a single-best-route tie-break.
type TiesAblationRow struct {
	Cloud                  string
	MeanTies, MeanBroken   float64
	WorstTies, WorstBroken float64
	ReachTies, ReachBroken int
}

// TiesAblation quantifies the paper's §8.1 design choice: counting an AS as
// detoured "if any one of its best routes" leads to the leaker is a worst
// case; breaking ties gives the corresponding best case. Reachability
// itself is unaffected (route existence does not depend on tie handling),
// which the rows also verify.
func TiesAblation(env *Env) ([]TiesAblationRow, error) {
	in := env.In2020
	var rows []TiesAblationRow
	for _, cloud := range Clouds() {
		origin := in.Clouds[cloud]
		leakers := bgpsim.SampleLeakers(in.Graph, origin, leakTrialsPerConfig/2, int64(origin)+1)
		row := TiesAblationRow{Cloud: cloud}
		for _, broken := range []bool{false, true} {
			cfg := bgpsim.Config{Origin: origin, BreakTies: broken}
			runs, err := bgpsim.RunLeakJobs(context.Background(), []bgpsim.LeakJob{{Graph: in.Graph, Config: cfg, Leakers: leakers}})
			if err != nil {
				return nil, err
			}
			st := bgpsim.SummarizeDetours(bgpsim.DetourFracs(runs[0], false))
			sim := bgpsim.New(in.Graph)
			reach, err := sim.ReachabilityCount(bgpsim.Config{
				Origin:    origin,
				Exclude:   env.M2020.Mask(origin, core.HierarchyFree),
				BreakTies: broken,
			})
			if err != nil {
				return nil, err
			}
			if broken {
				row.MeanBroken, row.WorstBroken, row.ReachBroken = st.Mean, st.Worst, reach
			} else {
				row.MeanTies, row.WorstTies, row.ReachTies = st.Mean, st.Worst, reach
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func printTiesAblation(w io.Writer, _ *Env, rows []TiesAblationRow) error {
	fmt.Fprintln(w, "leak detours: all-ties (paper's worst case) vs single-route tie-break")
	fmt.Fprintf(w, "%-10s %12s %12s %12s %12s %12s\n",
		"cloud", "mean(ties)", "mean(broken)", "worst(ties)", "worst(broken)", "reach equal")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %11.2f%% %11.2f%% %11.2f%% %11.2f%% %12v\n",
			r.Cloud, 100*r.MeanTies, 100*r.MeanBroken, 100*r.WorstTies, 100*r.WorstBroken,
			r.ReachTies == r.ReachBroken)
	}
	return nil
}
