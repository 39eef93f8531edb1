package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"flatnet/internal/astopo"
	"flatnet/internal/bgpsim"
	"flatnet/internal/core"
)

// SensitivityRow reports a cloud's hierarchy-free reachability when a
// fraction of its peer links is hidden from the analyst.
type SensitivityRow struct {
	Cloud string
	// MissFrac is the fraction of true peerings removed (simulated FNR).
	MissFrac float64
	// Reach and Pct are the metric with those peerings hidden.
	Reach int
	Pct   float64
}

// sensitivityFractions sweeps the §5-reported FNR range and beyond.
var sensitivityFractions = []float64{0, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9}

// Sensitivity quantifies the paper's §4.4 caveat — "it is likely that we
// underestimate the interconnectivity" — by hiding random fractions of
// each cloud's peer links (simulating measurement false negatives) and
// recomputing hierarchy-free reachability. The paper's final methodology
// missed ~21% of neighbors; the sweep shows how much metric error that
// implies.
//
// Every row runs on the one frozen 2020 graph. A route's AS path never
// contains its origin twice, so a link incident to the origin can only
// ever be a route's first hop: hiding the cloud's peering with p is the
// same as the cloud not announcing to p. Each row is therefore one
// propagation under the cloud's hierarchy-free mask with a Policy that
// announces to every neighbor except the dropped peers. The mask is
// unchanged by the drop because only peers go, never providers.
func Sensitivity(env *Env) ([]SensitivityRow, error) {
	g := env.In2020.Graph
	sim := bgpsim.New(g)
	total := float64(g.NumASes() - 1)
	var rows []SensitivityRow
	for _, cloud := range Clouds() {
		asn := env.In2020.Clouds[cloud]
		mask := env.M2020.Mask(asn, core.HierarchyFree)
		// One permutation per cloud so the drop sets nest: a higher miss
		// fraction always hides a superset, making the sweep monotone by
		// construction. The permuted peers come first, so the row that
		// hides d of them announces to the suffix allow[d:].
		peers := g.Peers(asn)
		rng := rand.New(rand.NewSource(int64(asn)))
		allow := make([]astopo.ASN, 0, g.Degree(asn))
		for _, i := range rng.Perm(len(peers)) {
			allow = append(allow, peers[i])
		}
		allow = append(append(allow, g.Providers(asn)...), g.Customers(asn)...)
		for _, frac := range sensitivityFractions {
			dropped := int(frac * float64(len(peers)))
			var policy *bgpsim.Policy
			if dropped > 0 {
				policy = bgpsim.NewPolicy(g, allow[dropped:])
			}
			n, err := sim.ReachabilityCount(bgpsim.Config{Origin: asn, Policy: policy, Exclude: mask})
			if err != nil {
				return nil, err
			}
			rows = append(rows, SensitivityRow{
				Cloud:    cloud,
				MissFrac: frac,
				Reach:    n,
				Pct:      100 * float64(n) / total,
			})
		}
	}
	return rows, nil
}

func printSensitivity(w io.Writer, _ *Env, rows []SensitivityRow) error {
	fmt.Fprintln(w, "hierarchy-free reachability when a fraction of each cloud's peerings is invisible")
	fmt.Fprintln(w, "(the paper's final methodology missed ~21% of neighbors; §4.4's underestimation caveat)")
	fmt.Fprintf(w, "%-10s", "cloud \\ miss")
	for _, f := range sensitivityFractions {
		fmt.Fprintf(w, " %7.0f%%", 100*f)
	}
	fmt.Fprintln(w)
	var cur string
	for _, r := range rows {
		if r.Cloud != cur {
			if cur != "" {
				fmt.Fprintln(w)
			}
			cur = r.Cloud
			fmt.Fprintf(w, "%-10s", r.Cloud)
		}
		fmt.Fprintf(w, " %7.1f%%", r.Pct)
	}
	fmt.Fprintln(w)
	return nil
}

// helper used by tests: the zero-miss row must match the headline metric.
func sensitivityBaseline(rows []SensitivityRow, cloud string) (SensitivityRow, bool) {
	for _, r := range rows {
		if r.Cloud == cloud && r.MissFrac == 0 {
			return r, true
		}
	}
	return SensitivityRow{}, false
}
