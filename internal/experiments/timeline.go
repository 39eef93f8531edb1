package experiments

// Timeline (longitudinal extension): hierarchy-free reachability of the
// four paper clouds for every year of the 2015–2025 preset series. Each
// year's world is the previous one grown by one topogen growth step, and
// each row is four point queries on that world — the same TimelineRowFor
// that `flatnet timeline report -snapshot` prints a frozen year with.

import (
	"fmt"
	"io"

	"flatnet/internal/astopo"
	"flatnet/internal/cluster"
	"flatnet/internal/core"
	"flatnet/internal/topogen"
)

// CloudReach is one cloud's hierarchy-free standing in one year.
type CloudReach struct {
	Name  string
	AS    astopo.ASN
	Reach int
	Pct   float64
}

// TimelineRow is one year of the longitudinal series.
type TimelineRow struct {
	Year  int
	World string // content address (cluster.DatasetHash)
	ASes  int
	Links int
	// Clouds holds the paper clouds in Clouds() order.
	Clouds []CloudReach
}

// TimelineRowFor computes one world's row: one hierarchy-free propagation
// per paper cloud.
func TimelineRowFor(year int, in *topogen.Internet) (TimelineRow, error) {
	g := in.Graph
	total := g.NumASes() - 1
	row := TimelineRow{
		Year:  year,
		World: cluster.DatasetHash(g, in.Tier1, in.Tier2),
		ASes:  g.NumASes(),
		Links: g.NumLinks(),
	}
	m := core.New(core.Dataset{Graph: g, Tier1: in.Tier1, Tier2: in.Tier2})
	for _, name := range Clouds() {
		a, ok := in.Clouds[name]
		if !ok {
			return row, fmt.Errorf("experiments: %d world has no %s cloud", year, name)
		}
		n, err := m.Reachability(a, core.HierarchyFree)
		if err != nil {
			return row, err
		}
		row.Clouds = append(row.Clouds, CloudReach{
			Name: name, AS: a, Reach: n,
			Pct: 100 * float64(n) / float64(total),
		})
	}
	return row, nil
}

// TimelineAt computes the whole preset series at one scale: generate the
// first year, then grow the world one year at a time through the growth
// deltas, taking each year's row from TimelineRowFor.
func TimelineAt(scale float64) ([]TimelineRow, error) {
	in, err := topogen.GenerateYear(topogen.TimelineFirstYear, scale)
	if err != nil {
		return nil, err
	}
	var rows []TimelineRow
	for year := topogen.TimelineFirstYear; ; year++ {
		row, err := TimelineRowFor(year, in)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
		if year == topogen.TimelineLastYear {
			return rows, nil
		}
		d, err := topogen.EvolveStep(in, year+1, scale)
		if err != nil {
			return nil, err
		}
		if in, err = topogen.ApplyDelta(in, d); err != nil {
			return nil, err
		}
	}
}

// PrintTimeline renders the per-year table. `flatnet run timeline`,
// `flatnet timeline report` and its single-snapshot mode all print
// through it, so a frozen year's row is byte-comparable to the series'.
func PrintTimeline(w io.Writer, rows []TimelineRow) {
	fmt.Fprintf(w, "%-5s %-13s %7s %8s", "year", "world", "ases", "links")
	for _, c := range Clouds() {
		fmt.Fprintf(w, "  %18s", c)
	}
	fmt.Fprintln(w)
	for _, row := range rows {
		fmt.Fprintf(w, "%-5d %-13.12s %7d %8d", row.Year, row.World, row.ASes, row.Links)
		for _, c := range row.Clouds {
			fmt.Fprintf(w, "  %10d (%4.1f%%)", c.Reach, c.Pct)
		}
		fmt.Fprintln(w)
	}
}

// timelineRows is the series at the Env's scale; it reads nothing else of
// the Env.
func timelineRows(env *Env) ([]TimelineRow, error) { return TimelineAt(env.Scale) }

func printTimeline(w io.Writer, _ *Env, rows []TimelineRow) error {
	PrintTimeline(w, rows)
	return nil
}
