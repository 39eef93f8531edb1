package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"

	"flatnet/internal/astopo"
	"flatnet/internal/bgpsim"
)

// cmdLeaks runs the §8.2 route-leak scenario table for one origin AS.
func cmdLeaks(args []string) error {
	fs := flag.NewFlagSet("leaks", flag.ContinueOnError)
	scale := fs.Float64("scale", 0.04987, "topology scale (1.0 = the paper's 69,488 ASes)")
	year := fs.Int("year", 2020, "preset year")
	asn := fs.String("as", "15169", "origin ASN")
	trials := fs.Int("trials", 300, "random leakers per scenario")
	hijack := fs.Bool("hijack", false, "simulate forged originations (prefix hijacks) instead of leaks")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	v, err := strconv.ParseUint(*asn, 10, 32)
	if err != nil {
		return usagef("leaks: bad ASN %q", *asn)
	}
	if *trials < 1 {
		return usagef("leaks: -trials must be at least 1, got %d", *trials)
	}
	origin := astopo.ASN(v)
	in, err := genPreset(*scale, *year)
	if err != nil {
		return err
	}
	if _, ok := in.Graph.Index(origin); !ok {
		return fmt.Errorf("leaks: AS%d not in the generated topology", origin)
	}
	leakers := bgpsim.SampleLeakers(in.Graph, origin, *trials, int64(origin))
	kind := "route-leak"
	if *hijack {
		kind = "prefix-hijack"
	}
	fmt.Printf("%s exposure of %s (AS%d), %d random misconfigured ASes per scenario:\n\n",
		kind, in.NameOf(origin), origin, len(leakers))
	fmt.Printf("%-40s %12s %12s %14s\n", "scenario", "mean detour", "p95 detour", "worst detour")
	// One job per scenario, all run by one RunLeakJobs call.
	var jobs []bgpsim.LeakJob
	for _, scen := range bgpsim.LeakScenarios() {
		cfg := bgpsim.ScenarioConfig(in.Graph, origin, in.Tier1, in.Tier2, scen)
		cfg.Hijack = *hijack
		jobs = append(jobs, bgpsim.LeakJob{Graph: in.Graph, Config: cfg, Leakers: leakers})
	}
	runs, err := bgpsim.RunLeakJobs(context.Background(), jobs)
	if err != nil {
		return err
	}
	for i, scen := range bgpsim.LeakScenarios() {
		st := bgpsim.SummarizeDetours(bgpsim.DetourFracs(runs[i], false))
		fmt.Printf("%-40s %11.2f%% %11.2f%% %13.2f%%\n", scen, 100*st.Mean, 100*st.P95, 100*st.Worst)
	}
	fmt.Fprintln(os.Stdout, "\n(detour = fraction of ASes with a tied-best route toward the leaker; erratum semantics)")
	return nil
}
