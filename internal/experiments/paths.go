package experiments

import (
	"fmt"
	"io"

	"flatnet/internal/bgpsim"
	"flatnet/internal/population"
	"flatnet/internal/topogen"
)

// Fig13Weighting names the three bar weightings of Appendix E.
type Fig13Weighting int

const (
	// WeightASes counts every AS equally.
	WeightASes Fig13Weighting = iota
	// WeightEyeballs counts only eyeball (user-hosting) ASes.
	WeightEyeballs
	// WeightUsers weights eyeball ASes by their user population.
	WeightUsers
)

func (wt Fig13Weighting) String() string {
	switch wt {
	case WeightASes:
		return "ASes"
	case WeightEyeballs:
		return "eyeball ASes"
	case WeightUsers:
		return "users"
	}
	return "unknown"
}

// Fig13Cell is the 1 / 2 / 3+ hop split for one (cloud, year, weighting).
type Fig13Cell struct {
	Cloud     string
	Year      int
	Weighting Fig13Weighting
	// Pct[0] is the share reached in 1 AS hop (direct peering/transit),
	// Pct[1] in 2 hops, Pct[2] in 3 or more.
	Pct [3]float64
}

// Fig13 emulates each cloud announcing a prefix in both years and bins best
// path lengths, under the three weightings.
func Fig13(env *Env) ([]Fig13Cell, error) {
	var out []Fig13Cell
	years := []struct {
		year int
		in   *topogen.Internet
		pop  *population.Model
	}{
		{2015, env.In2015, env.Pop2015},
		{2020, env.In2020, env.Pop2020},
	}
	for _, y := range years {
		// Full reachability excludes nothing; each run's Result is a
		// view of sim's buffers, read before the next run.
		sim := bgpsim.New(y.in.Graph)
		for _, cloud := range Clouds() {
			asn := y.in.Clouds[cloud]
			res, err := sim.Run(bgpsim.Config{Origin: asn})
			if err != nil {
				return nil, err
			}
			for _, wt := range []Fig13Weighting{WeightASes, WeightEyeballs, WeightUsers} {
				cell := Fig13Cell{Cloud: cloud, Year: y.year, Weighting: wt}
				var sums [3]float64
				var total float64
				g := y.in.Graph
				for i, c := range res.Class {
					if c == bgpsim.ClassNone || int32(i) == res.Origin {
						continue
					}
					a := g.ASNAt(i)
					var weight float64
					switch wt {
					case WeightASes:
						weight = 1
					case WeightEyeballs:
						if y.pop.IsEyeball(a) {
							weight = 1
						}
					case WeightUsers:
						weight = y.pop.Users(a)
					}
					if weight == 0 {
						continue
					}
					bin := int(res.Dist[i]) - 1
					if bin > 2 {
						bin = 2
					}
					if bin < 0 {
						bin = 0
					}
					sums[bin] += weight
					total += weight
				}
				if total > 0 {
					for b := range sums {
						cell.Pct[b] = 100 * sums[b] / total
					}
				}
				out = append(out, cell)
			}
		}
	}
	return out, nil
}

func printFig13(w io.Writer, _ *Env, cells []Fig13Cell) error {
	fmt.Fprintf(w, "%-10s %-5s %-14s %8s %8s %8s\n", "cloud", "year", "weighting", "1 hop", "2 hops", "3+ hops")
	for _, c := range cells {
		fmt.Fprintf(w, "%-10s %-5d %-14s %7.1f%% %7.1f%% %7.1f%%\n",
			c.Cloud, c.Year, c.Weighting, c.Pct[0], c.Pct[1], c.Pct[2])
	}
	return nil
}

// AppARow is one cloud's path-containment rate.
type AppARow struct {
	Cloud string
	// Contained is the fraction of destination-reaching traceroutes
	// whose AS path is one of the simulated tied-best paths.
	Contained float64
	Traces    int
}

// AppA validates simulated paths against traced paths (the paper: 73.3%
// Amazon, 91.9% Google, 82.9% IBM, 85.4% Microsoft).
func AppA(env *Env) ([]AppARow, error) {
	var out []AppARow
	for _, cloud := range Clouds() {
		traces, err := env.Traces(2020, cloud, 0)
		if err != nil {
			return nil, err
		}
		row := AppARow{Cloud: cloud}
		contained := 0
		for i := range traces.facts {
			if f := &traces.facts[i]; f.reached { // the paper discards traces that miss the dest AS
				row.Traces++
				if f.onBest {
					contained++
				}
			}
		}
		if row.Traces > 0 {
			row.Contained = float64(contained) / float64(row.Traces)
		}
		out = append(out, row)
	}
	return out, nil
}

func printAppA(w io.Writer, _ *Env, rows []AppARow) error {
	fmt.Fprintf(w, "%-10s %10s %12s\n", "cloud", "traces", "contained")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %10d %11.1f%%\n", r.Cloud, r.Traces, 100*r.Contained)
	}
	return nil
}
