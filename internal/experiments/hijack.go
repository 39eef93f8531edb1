package experiments

import (
	"context"
	"fmt"
	"io"

	"flatnet/internal/bgpsim"
)

// HijackRow compares a cloud's exposure to accidental leaks and to forged
// originations (prefix hijacks), which §8.1 calls "intentional malicious
// route leaks".
type HijackRow struct {
	Cloud                  string
	LeakMean, HijackMean   float64
	LeakWorst, HijackWorst float64
	// LockedHijackMean is the hijack exposure with Tier-1+Tier-2 peer
	// locking deployed — how much the paper's §8.2 defense helps against
	// deliberate attacks.
	LockedHijackMean float64
}

// Hijack runs the comparison for every cloud: three jobs per cloud — leaks,
// hijacks, and hijacks under Tier-1+Tier-2 peer locking, all against one
// leaker sample — as one RunLeakJobs call.
func Hijack(env *Env) ([]HijackRow, error) {
	in := env.In2020
	clouds := Clouds()
	var jobs []bgpsim.LeakJob
	for _, cloud := range clouds {
		origin := in.Clouds[cloud]
		leakers := bgpsim.SampleLeakers(in.Graph, origin, leakTrialsPerConfig/2, int64(origin)+7)
		locked := bgpsim.ScenarioConfig(in.Graph, origin, in.Tier1, in.Tier2, bgpsim.AnnounceAllLockT1T2)
		locked.Hijack = true
		for _, cfg := range []bgpsim.Config{{Origin: origin}, {Origin: origin, Hijack: true}, locked} {
			jobs = append(jobs, bgpsim.LeakJob{Graph: in.Graph, Config: cfg, Leakers: leakers})
		}
	}
	trials, err := bgpsim.RunLeakJobs(context.Background(), jobs)
	if err != nil {
		return nil, err
	}
	meanWorst := func(trials []bgpsim.LeakTrial) (mean, worst float64) {
		st := bgpsim.SummarizeDetours(bgpsim.DetourFracs(trials, false))
		return st.Mean, st.Worst
	}
	rows := make([]HijackRow, len(clouds))
	for i, cloud := range clouds {
		r := &rows[i]
		r.Cloud = cloud
		r.LeakMean, r.LeakWorst = meanWorst(trials[3*i])
		r.HijackMean, r.HijackWorst = meanWorst(trials[3*i+1])
		r.LockedHijackMean, _ = meanWorst(trials[3*i+2])
	}
	return rows, nil
}

func printHijack(w io.Writer, _ *Env, rows []HijackRow) error {
	fmt.Fprintln(w, "accidental leaks vs forged originations (prefix hijacks), announce-to-all")
	fmt.Fprintf(w, "%-10s %11s %13s %12s %14s %18s\n",
		"cloud", "leak mean", "hijack mean", "leak worst", "hijack worst", "hijack+T1T2 lock")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %10.2f%% %12.2f%% %11.2f%% %13.2f%% %17.2f%%\n",
			r.Cloud, 100*r.LeakMean, 100*r.HijackMean, 100*r.LeakWorst, 100*r.HijackWorst,
			100*r.LockedHijackMean)
	}
	return nil
}
