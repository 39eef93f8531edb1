package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"text/tabwriter"
)

// readResults loads a result file: one JSON result per line, as -o appends
// them. Traced and failed runs are not part of a comparison.
func readResults(path string) ([]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if !r.Trace && r.Correct {
			out = append(out, &r)
		}
	}
	return out, sc.Err()
}

// series is one (workload, metric) pair's values across a set of runs.
type series struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"-"`
	N        int       `json:"runs"`
	Q1       float64   `json:"q1"`
	Median   float64   `json:"median"`
	Q3       float64   `json:"q3"`
	Min      float64   `json:"min"`
	Max      float64   `json:"max"`
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise a difference has to clear.
func (s *series) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// rangeShare is (max − min) / median, the stricter within-set criterion.
func (s *series) rangeShare() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Max - s.Min) / s.Median
}

// summarize folds a set of runs into one series per gated (workload,
// metric) pair, in workload then metric-table order.
func summarize(runs []*result) []*series {
	byKey := map[[2]string]*series{}
	for _, r := range runs {
		for name, m := range r.Metrics {
			if _, gated := boundFor(name); !gated {
				continue
			}
			k := [2]string{r.Workload, name}
			if byKey[k] == nil {
				byKey[k] = &series{Workload: r.Workload, Metric: name, Unit: m.Unit}
			}
			byKey[k].Values = append(byKey[k].Values, m.Value)
		}
	}
	// rank orders rows by workload, then by the metric tables' own order.
	metricRank := map[string]int{}
	for i, d := range append(append([]metricDef(nil), endToEnd...), detail...) {
		metricRank[d.Name] = i
	}
	rank := func(s *series) int {
		return slices.Index(workloadNames, s.Workload)*len(metricRank) + metricRank[s.Metric]
	}
	out := make([]*series, 0, len(byKey))
	for _, s := range byKey {
		s.N = len(s.Values)
		s.Q1, s.Median, s.Q3 = quartiles(s.Values)
		sorted := append([]float64(nil), s.Values...)
		sort.Float64s(sorted)
		s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return rank(out[i]) < rank(out[j]) })
	return out
}

// verdict compares a change's series with its base's for one metric.
//
//	unresolved  the runs of either side spread wider than the bound, and
//	            the change did not win every run against every base run
//	worse       the change's median is worse than the base's by more than
//	            the bound
//	better      the median moved the good way by more than the base's own
//	            interquartile spread
//	same        anything else
func verdict(def metricDef, base, change *series) (string, float64) {
	ratio := 0.0
	if base.Median != 0 {
		ratio = change.Median / base.Median
	}
	worsening := ratio - 1 // share of the base median the change lost
	if def.Better == "higher" {
		worsening = 1 - ratio
	}
	if def.Name == "fail_ratio" {
		// may not rise at all
		switch {
		case change.Median > base.Median:
			return "worse", ratio
		case change.Median < base.Median:
			return "better", ratio
		}
		return "same", ratio
	}
	if base.spread() > def.Bound || change.spread() > def.Bound {
		allBetter := change.Max < base.Min
		if def.Better == "higher" {
			allBetter = change.Min > base.Max
		}
		if !allBetter {
			return "unresolved", ratio
		}
		return "better", ratio
	}
	switch {
	case worsening > def.Bound:
		return "worse", ratio
	case -worsening > base.spread() && worsening < 0:
		return "better", ratio
	}
	return "same", ratio
}

// compareFiles prints one row per (metric, workload) present in both
// files and returns 1 when any row is worse or unresolved.
func compareFiles(w io.Writer, basePath, changePath string) int {
	baseRuns, err := readResults(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	changeRuns, err := readResults(changePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	changeBy := map[[2]string]*series{}
	for _, s := range summarize(changeRuns) {
		changeBy[[2]string{s.Workload, s.Metric}] = s
	}
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median [q1, q3] (n)\tchange median [q1, q3] (n)\tchange/base\tbound\trange a/b\tverdict")
	bad := 0
	for _, b := range summarize(baseRuns) {
		c := changeBy[[2]string{b.Workload, b.Metric}]
		if c == nil {
			continue
		}
		def, _ := boundFor(b.Metric)
		v, ratio := verdict(def, b, c)
		if v == "worse" || v == "unresolved" {
			bad++
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g] (%d)\t%.4g [%.4g, %.4g] (%d)\t%.3f of %.4g\t%.2f\t%.3f/%.3f\t%s\n",
			b.Workload, b.Metric, b.Unit, b.Median, b.Q1, b.Q3, b.N, c.Median, c.Q1, c.Q3, c.N,
			ratio, b.Median, def.Bound, b.rangeShare(), c.rangeShare(), v)
	}
	tw.Flush()
	if bad > 0 {
		fmt.Fprintf(w, "%d row(s) worse or unresolved\n", bad)
		return 1
	}
	return 0
}

// summarizeFiles prints, per result file, one series per gated (workload,
// metric) pair, one to a line: how bench/baseline.json is made.
func summarizeFiles(w io.Writer, paths []string) int {
	fmt.Fprintln(w, "[")
	for i, p := range paths {
		runs, err := readResults(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		fmt.Fprintf(w, " {\"file\": %q, \"series\": [\n", filepath.Base(p))
		all := summarize(runs)
		for j, s := range all {
			b, err := json.Marshal(s)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			fmt.Fprintf(w, "  %s%s\n", b, comma(j < len(all)-1))
		}
		fmt.Fprintf(w, " ]}%s\n", comma(i < len(paths)-1))
	}
	fmt.Fprintln(w, "]")
	return 0
}

func comma(more bool) string {
	if more {
		return ","
	}
	return ""
}
