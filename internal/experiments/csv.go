package experiments

import (
	"encoding/csv"
	"io"
	"strconv"
)

// Table is one machine-readable experiment artifact.
type Table struct {
	// Name becomes the CSV file's base name.
	Name   string
	Header []string
	Rows   [][]string
}

// WriteCSV encodes the table.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	if err := cw.WriteAll(t.Rows); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

func itoa(v int) string     { return strconv.Itoa(v) }
func ftoa(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }

// The CSV builders below each take one experiment's typed result, the same
// value its text renderer printed, and lay it out as tables.

func fig2Tables(rows []Fig2Row) []Table {
	t := Table{Name: "fig2_reachability", Header: []string{"network", "asn", "group", "provider_free", "tier1_free", "hierarchy_free"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Name, itoa(int(r.AS)), r.Group, itoa(r.ProviderFree), itoa(r.Tier1Free), itoa(r.HierarchyFree)})
	}
	return []Table{t}
}

func table1Tables(res *Table1Result) []Table {
	mk := func(name string, rows []Table1Row) Table {
		t := Table{Name: name, Header: []string{"rank", "network", "asn", "reach", "pct"}}
		for _, r := range rows {
			t.Rows = append(t.Rows, []string{itoa(r.Rank), r.Name, itoa(int(r.AS)), itoa(r.Reach), ftoa(r.Pct)})
		}
		return t
	}
	return []Table{mk("table1_2015", res.Top2015), mk("table1_2020", res.Top2020)}
}

func fig3Tables(res *Fig3Result) []Table {
	t := Table{Name: "fig3_scatter", Header: []string{"asn", "customer_cone", "hierarchy_free_reach", "type", "class"}}
	for _, p := range res.Points {
		t.Rows = append(t.Rows, []string{itoa(int(p.AS)), itoa(p.Cone), itoa(p.Reach), p.Type.String(), p.Class.String()})
	}
	return []Table{t}
}

func fig4Tables(rows []Fig4Row) []Table {
	t := Table{Name: "fig4_unreachable", Header: []string{"network", "unreachable", "content", "transit", "access", "enterprise"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Name, itoa(r.Unreachable),
			itoa(r.ByType[0]), itoa(r.ByType[1]), itoa(r.ByType[2]), itoa(r.ByType[3])})
	}
	return []Table{t}
}

func fig6Tables(figs []Fig6Result) []Table {
	t := Table{Name: "fig6_reliance_hist", Header: []string{"cloud", "bin_start", "ases"}}
	for _, f := range figs {
		for _, bin := range f.binStarts() {
			t.Rows = append(t.Rows, []string{f.Cloud, itoa(bin), itoa(f.Bins[bin])})
		}
	}
	return []Table{t}
}

func table2Tables(rows []Table2Row) []Table {
	t := Table{Name: "table2_top_reliance", Header: []string{"cloud", "rank", "asn", "reliance"}}
	for _, r := range rows {
		for i, e := range r.Top {
			t.Rows = append(t.Rows, []string{r.Cloud, itoa(i + 1), itoa(int(e.AS)), ftoa(e.Value)})
		}
	}
	return []Table{t}
}

// leakTables lays out Figs. 7–9: one CDF row per (panel, scenario, grid
// point).
func leakTables(name string) func([]*LeakFigure) []Table {
	return func(figs []*LeakFigure) []Table {
		t := Table{Name: name + "_leak_cdf", Header: []string{"origin", "scenario", "detoured_at_most", "cum_frac", "mean_detoured", "avg_resilience"}}
		for _, f := range figs {
			for _, c := range f.Curves {
				for i, x := range f.Grid() {
					t.Rows = append(t.Rows, []string{f.Origin, c.Scenario.String(), ftoa(x), ftoa(c.CDF[i]), ftoa(c.MeanDetoured), ftoa(f.AvgResilience)})
				}
			}
		}
		return []Table{t}
	}
}

func fig10Tables(res *Fig10Result) []Table {
	t := Table{Name: "fig10_over_time", Header: []string{"year", "detoured_at_most", "cum_frac", "mean"}}
	for i, x := range res.Grid {
		t.Rows = append(t.Rows, []string{"2015", ftoa(x), ftoa(res.CDF2015[i]), ftoa(res.Mean2015)})
	}
	for i, x := range res.Grid {
		t.Rows = append(t.Rows, []string{"2020", ftoa(x), ftoa(res.CDF2020[i]), ftoa(res.Mean2020)})
	}
	return []Table{t}
}

func fig12Tables(res *Fig12Result) []Table {
	mk := func(name string, rows []Fig12Row) Table {
		t := Table{Name: name, Header: []string{"label", "cov500km", "cov700km", "cov1000km"}}
		for _, r := range rows {
			t.Rows = append(t.Rows, []string{r.Label, ftoa(r.Coverage[0]), ftoa(r.Coverage[1]), ftoa(r.Coverage[2])})
		}
		return t
	}
	return []Table{
		mk("fig12_cloud_by_continent", res.CloudByContinent),
		mk("fig12_transit_by_continent", res.TransitByContinent),
		mk("fig12_per_provider", res.PerProvider),
	}
}

func fig13Tables(cells []Fig13Cell) []Table {
	t := Table{Name: "fig13_path_lengths", Header: []string{"cloud", "year", "weighting", "hop1_pct", "hop2_pct", "hop3plus_pct"}}
	for _, c := range cells {
		t.Rows = append(t.Rows, []string{c.Cloud, itoa(c.Year), c.Weighting.String(), ftoa(c.Pct[0]), ftoa(c.Pct[1]), ftoa(c.Pct[2])})
	}
	return []Table{t}
}

func table3Tables(rows []Table3Row) []Table {
	t := Table{Name: "table3_rdns", Header: []string{"network", "asn", "pops", "hostnames", "pct_rdns"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Name, itoa(int(r.AS)), itoa(r.PoPs), itoa(r.Hostnames), ftoa(r.PctRDNS)})
	}
	return []Table{t}
}

func appATables(rows []AppARow) []Table {
	t := Table{Name: "appA_containment", Header: []string{"cloud", "traces", "contained_frac"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Cloud, itoa(r.Traces), ftoa(r.Contained)})
	}
	return []Table{t}
}

func sec41Tables(rows []Sec41Row) []Table {
	t := Table{Name: "sec41_visibility", Header: []string{"cloud", "feed_only", "combined", "ground_truth", "missed_frac"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Cloud, itoa(r.FeedOnly), itoa(r.Combined), itoa(r.GroundTruth), ftoa(r.MissedFrac)})
	}
	return []Table{t}
}

func sec5Tables(rows []Sec5Row) []Table {
	t := Table{Name: "sec5_validation", Header: []string{"cloud", "stage", "vms", "tp", "fp", "fn", "fdr", "fnr"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Cloud, r.Stage.String(), itoa(r.VMs),
			itoa(r.TP), itoa(r.FP), itoa(r.FN), ftoa(r.FDR), ftoa(r.FNR)})
	}
	return []Table{t}
}

func ablationTables(rows []AblationRow) []Table {
	t := Table{Name: "ablation_augmentation", Header: []string{"cloud", "feed_only", "augmented", "ground_truth"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Cloud, itoa(r.FeedOnly), itoa(r.Augmented), itoa(r.Truth)})
	}
	return []Table{t}
}

func tiesAblationTables(rows []TiesAblationRow) []Table {
	t := Table{Name: "ablation_ties", Header: []string{"cloud", "mean_ties", "mean_broken", "worst_ties", "worst_broken"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Cloud, ftoa(r.MeanTies), ftoa(r.MeanBroken), ftoa(r.WorstTies), ftoa(r.WorstBroken)})
	}
	return []Table{t}
}

func hijackTables(rows []HijackRow) []Table {
	t := Table{Name: "hijack_vs_leak", Header: []string{"cloud", "leak_mean", "hijack_mean", "leak_worst", "hijack_worst", "locked_hijack_mean"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Cloud, ftoa(r.LeakMean), ftoa(r.HijackMean), ftoa(r.LeakWorst), ftoa(r.HijackWorst), ftoa(r.LockedHijackMean)})
	}
	return []Table{t}
}

func sensitivityTables(rows []SensitivityRow) []Table {
	t := Table{Name: "sensitivity_fnr", Header: []string{"cloud", "miss_frac", "reach", "pct"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Cloud, ftoa(r.MissFrac), itoa(r.Reach), ftoa(r.Pct)})
	}
	return []Table{t}
}
