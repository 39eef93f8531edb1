package experiments

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"flatnet/internal/astopo"
	"flatnet/internal/core"
)

// Fig6Result is the reliance histogram for one cloud: bin width 25 (as in
// the paper) over reliance values of all other ASes, plus the top entries.
type Fig6Result struct {
	Cloud string
	// Bins maps bin start (0, 25, 50, ...) to the number of ASes whose
	// reliance falls in [start, start+25).
	Bins map[int]int
	// MaxReliance and MaxAS identify the most relied-upon network.
	MaxReliance float64
	MaxAS       astopo.ASN
	// RelyOne counts ASes with reliance in [1, 2): the "completely flat"
	// signature (§7.2).
	RelyOne int
}

const fig6BinWidth = 25

// Fig6 computes the per-cloud reliance histograms under hierarchy-free
// propagation.
func Fig6(env *Env) ([]Fig6Result, error) {
	var out []Fig6Result
	for _, c := range Clouds() {
		r, err := env.reliance(c)
		if err != nil {
			return nil, err
		}
		out = append(out, r.hist)
	}
	return out, nil
}

// fig6Result bins a cloud's reliance entries, skipping the cloud itself.
func fig6Result(cloud string, asn astopo.ASN, entries []core.RelianceEntry) Fig6Result {
	res := Fig6Result{Cloud: cloud, Bins: make(map[int]int)}
	for _, e := range entries {
		if e.AS == asn {
			continue
		}
		bin := int(e.Value) / fig6BinWidth * fig6BinWidth
		res.Bins[bin]++
		if e.Value > res.MaxReliance {
			res.MaxReliance = e.Value
			res.MaxAS = e.AS
		}
		if e.Value >= 1 && e.Value < 2 {
			res.RelyOne++
		}
	}
	return res
}

// binStarts lists the occupied bins in ascending order.
func (r Fig6Result) binStarts() []int {
	bins := make([]int, 0, len(r.Bins))
	for b := range r.Bins {
		bins = append(bins, b)
	}
	sort.Ints(bins)
	return bins
}

func printFig6(w io.Writer, env *Env, results []Fig6Result) error {
	for _, r := range results {
		fmt.Fprintf(w, "%s: max reliance %.1f on %s; ASes with reliance in [1,2): %d\n",
			r.Cloud, r.MaxReliance, env.In2020.NameOf(r.MaxAS), r.RelyOne)
		for _, b := range r.binStarts() {
			if b > 400 {
				fmt.Fprintf(w, "  [tail: bins above 400 omitted]\n")
				break
			}
			fmt.Fprintf(w, "  [%4d,%4d): %6d ASes\n", b, b+fig6BinWidth, r.Bins[b])
		}
	}
	return nil
}

// Table2Row is one cloud's top-3 reliance entries.
type Table2Row struct {
	Cloud string
	Top   []core.RelianceEntry
}

// Table2 extracts each cloud's three most relied-upon networks.
func Table2(env *Env) ([]Table2Row, error) {
	var out []Table2Row
	for _, c := range Clouds() {
		r, err := env.reliance(c)
		if err != nil {
			return nil, err
		}
		out = append(out, Table2Row{Cloud: c, Top: r.top})
	}
	return out, nil
}

// relianceSummary is what Fig. 6 and Table 2 read of one cloud's
// hierarchy-free reliance in 2020.
type relianceSummary struct {
	hist Fig6Result
	top  []core.RelianceEntry
}

// reliance computes a cloud's reliance vector once per Env scope and keeps
// the two figures' summaries of it, not the vector: four vectors of up to
// one entry per AS would stay live through a pass for a histogram and a
// top three. The summary is shared: callers must not modify it.
func (e *Env) reliance(cloud string) (relianceSummary, error) {
	asn := e.In2020.Clouds[cloud]
	return memoize(e, fmt.Sprintf("reliance/%d", asn), func() (relianceSummary, error) {
		entries, err := e.M2020.Reliance(asn, core.HierarchyFree)
		if err != nil {
			return relianceSummary{}, err
		}
		// The histogram reads the entries in propagation order (MaxAS is
		// the first maximum); ranking them reorders them, so it comes
		// second, and the top three are copied out of the vector.
		hist := fig6Result(cloud, asn, entries)
		top := slices.Clone(core.RankReliance(entries, asn, 3))
		return relianceSummary{hist: hist, top: top}, nil
	})
}

func printTable2(w io.Writer, env *Env, rows []Table2Row) error {
	fmt.Fprintf(w, "%-10s %-28s %-28s %-28s\n", "cloud", "#1 (AS, rely)", "#2", "#3")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s", r.Cloud)
		for _, e := range r.Top {
			label := env.In2020.NameOf(e.AS)
			if !strings.HasPrefix(label, "AS") {
				label = fmt.Sprintf("%s (AS%d)", label, e.AS)
			}
			fmt.Fprintf(w, " %-28s", fmt.Sprintf("%s %.1f", label, e.Value))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// AppBResult examines one hierarchy-reliant Tier-1 (Appendix B): its
// Tier-1-free reachability, the Tier-2s it relies on most, and the
// counterfactual reachability when just those Tier-2s are bypassed.
type AppBResult struct {
	Name                string
	AS                  astopo.ASN
	Tier1FreeReach      int
	HierarchyFreeReach  int
	TopTier2            []core.RelianceEntry
	BypassTopTier2Reach int
}

// AppB runs the case study for Sprint (1239) and Deutsche Telekom (3320).
func AppB(env *Env) ([]AppBResult, error) {
	m, in := env.M2020, env.In2020
	var out []AppBResult
	for _, a := range []astopo.ASN{1239, 3320} {
		r := AppBResult{Name: in.NameOf(a), AS: a}
		var err error
		if r.Tier1FreeReach, err = m.Reachability(a, core.Tier1Free); err != nil {
			return nil, err
		}
		if r.HierarchyFreeReach, err = m.Reachability(a, core.HierarchyFree); err != nil {
			return nil, err
		}
		// Reliance under Tier-1-free propagation, filtered to Tier-2s.
		entries, err := m.TopReliance(a, core.Tier1Free, in.Graph.NumASes())
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if in.Tier2.Has(e.AS) {
				r.TopTier2 = append(r.TopTier2, e)
				if len(r.TopTier2) == 6 {
					break
				}
			}
		}
		// Counterfactual: bypass only those six Tier-2s (plus the
		// Tier-1s and own providers).
		mask := m.Mask(a, core.Tier1Free)
		for _, e := range r.TopTier2 {
			if i, ok := in.Graph.Index(e.AS); ok {
				mask[i] = true
			}
		}
		if r.BypassTopTier2Reach, err = m.ReachabilityExcluding(a, mask); err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func printAppB(w io.Writer, env *Env, results []AppBResult) error {
	for _, r := range results {
		fmt.Fprintf(w, "%s (AS%d): Tier-1-free reach %d -> hierarchy-free %d\n",
			r.Name, r.AS, r.Tier1FreeReach, r.HierarchyFreeReach)
		fmt.Fprintf(w, "  top Tier-2 reliance:")
		for _, e := range r.TopTier2 {
			fmt.Fprintf(w, " %s(%.0f)", env.In2020.NameOf(e.AS), e.Value)
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "  bypassing just those %d Tier-2s: reach %d (vs full hierarchy-free %d)\n",
			len(r.TopTier2), r.BypassTopTier2Reach, r.HierarchyFreeReach)
	}
	return nil
}
