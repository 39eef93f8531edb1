package experiments

import (
	"fmt"
	"io"

	"flatnet/internal/astopo"
	"flatnet/internal/core"
	"flatnet/internal/neighbors"
)

// feedVPCount is the number of simulated route-collector vantage points.
const feedVPCount = 40

// feedGraph is one preset's BGP-feed-visible topology, collected on the
// year's destination sweep beside its trace campaigns: §4.1 and the
// ablation read the same graph.
func (e *Env) feedGraph(year int) (*astopo.Graph, error) {
	sw, err := e.destSweep(year)
	return sw.feed, err
}

// Sec41Row compares BGP-feed-visible with combined (feed + traceroute)
// neighbor counts for one cloud — §4.1's "333 vs 1,389" style numbers.
type Sec41Row struct {
	Cloud       string
	FeedOnly    int
	Combined    int
	GroundTruth int
	// MissedFrac is the share of true neighbors invisible to the feed.
	MissedFrac float64
}

// Sec41 runs the visibility comparison.
func Sec41(env *Env) ([]Sec41Row, error) {
	in := env.In2020
	feed, err := env.feedGraph(2020)
	if err != nil {
		return nil, err
	}
	var rows []Sec41Row
	for _, cloud := range Clouds() {
		asn := in.Clouds[cloud]
		feedSet := astopo.NewASSet(append(append(feed.Providers(asn), feed.Peers(asn)...), feed.Customers(asn)...)...)
		traces, err := env.Traces(2020, cloud, 0)
		if err != nil {
			return nil, err
		}
		combined := feedSet.Union(traces.Neighbors(neighbors.StageFinal))
		truth := len(in.Graph.Providers(asn)) + len(in.Graph.Peers(asn)) + len(in.Graph.Customers(asn))
		rows = append(rows, Sec41Row{
			Cloud:       cloud,
			FeedOnly:    feed.Degree(asn),
			Combined:    len(combined),
			GroundTruth: truth,
			MissedFrac:  1 - float64(feed.Degree(asn))/float64(truth),
		})
	}
	return rows, nil
}

func printSec41(w io.Writer, _ *Env, rows []Sec41Row) error {
	fmt.Fprintf(w, "%-10s %10s %10s %12s %18s\n", "cloud", "feed-only", "combined", "ground truth", "feed misses")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %10d %10d %12d %17.0f%%\n",
			r.Cloud, r.FeedOnly, r.Combined, r.GroundTruth, 100*r.MissedFrac)
	}
	return nil
}

// Sec5Row is one methodology stage's accuracy for one configuration.
type Sec5Row struct {
	Cloud string
	Stage neighbors.Stage
	VMs   int
	neighbors.Validation
}

// Sec5 reproduces the §5 iterative-accuracy table: per stage and per VM
// count for Google and Microsoft (the two operators that validated).
func Sec5(env *Env) ([]Sec5Row, error) {
	in := env.In2020
	var rows []Sec5Row
	for _, cloud := range []string{"Google", "Microsoft"} {
		asn := in.Clouds[cloud]
		truth := append(append(in.Graph.Peers(asn), in.Graph.Providers(asn)...), in.Graph.Customers(asn)...)
		for _, stage := range neighbors.Stages() {
			for _, nVMs := range []int{4, 0} { // 0 = the paper's final VM counts
				traces, err := env.Traces(2020, cloud, nVMs)
				if err != nil {
					return nil, err
				}
				rows = append(rows, Sec5Row{
					Cloud:      cloud,
					Stage:      stage,
					VMs:        traces.VMs,
					Validation: neighbors.Validate(traces.Neighbors(stage), truth),
				})
			}
		}
	}
	return rows, nil
}

func printSec5(w io.Writer, _ *Env, rows []Sec5Row) error {
	fmt.Fprintf(w, "%-10s %-22s %4s %6s %6s %6s %8s %8s\n", "cloud", "stage", "VMs", "TP", "FP", "FN", "FDR", "FNR")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-22s %4d %6d %6d %6d %7.1f%% %7.1f%%\n",
			r.Cloud, r.Stage, r.VMs, r.TP, r.FP, r.FN, 100*r.FDR, 100*r.FNR)
	}
	return nil
}

// AblationRow compares hierarchy-free reachability for one cloud on three
// graphs: the feed-only view, the feed view augmented with traceroute-
// inferred neighbors (the paper's methodology), and ground truth.
type AblationRow struct {
	Cloud                      string
	FeedOnly, Augmented, Truth int
	FeedOnlyPct, AugmentedPct  float64
	TruthPct                   float64
}

// Ablation quantifies how much the traceroute augmentation matters — the
// paper's core methodological claim.
func Ablation(env *Env) ([]AblationRow, error) {
	in := env.In2020
	feed, err := env.feedGraph(2020)
	if err != nil {
		return nil, err
	}
	augGraph := feed.Clone()
	for _, cloud := range Clouds() {
		traces, err := env.Traces(2020, cloud, 0)
		if err != nil {
			return nil, err
		}
		neighbors.Augment(augGraph, in.Clouds[cloud], traces.Neighbors(neighbors.StageFinal))
	}

	reach := func(g *astopo.Graph, origin astopo.ASN) (int, float64, error) {
		m := core.New(core.Dataset{Graph: g, Tier1: in.Tier1, Tier2: in.Tier2})
		if _, ok := g.Index(origin); !ok {
			return 0, 0, nil
		}
		n, err := m.Reachability(origin, core.HierarchyFree)
		if err != nil {
			return 0, 0, err
		}
		return n, 100 * float64(n) / float64(g.NumASes()-1), nil
	}
	var rows []AblationRow
	for _, cloud := range Clouds() {
		asn := in.Clouds[cloud]
		row := AblationRow{Cloud: cloud}
		var err error
		if row.FeedOnly, row.FeedOnlyPct, err = reach(feed, asn); err != nil {
			return nil, err
		}
		if row.Augmented, row.AugmentedPct, err = reach(augGraph, asn); err != nil {
			return nil, err
		}
		if row.Truth, row.TruthPct, err = reach(in.Graph, asn); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func printAblation(w io.Writer, _ *Env, rows []AblationRow) error {
	fmt.Fprintf(w, "hierarchy-free reachability on three graphs:\n")
	fmt.Fprintf(w, "%-10s %18s %18s %18s\n", "cloud", "feed-only", "feed+traceroute", "ground truth")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %9d (%4.1f%%) %10d (%4.1f%%) %9d (%4.1f%%)\n",
			r.Cloud, r.FeedOnly, r.FeedOnlyPct, r.Augmented, r.AugmentedPct, r.Truth, r.TruthPct)
	}
	return nil
}
