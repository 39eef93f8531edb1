package experiments

import (
	"fmt"
	"io"
	"sort"

	"flatnet/internal/astopo"
	"flatnet/internal/geo"
	"flatnet/internal/rdns"
	"flatnet/internal/topogen"
)

// transitProvidersForGeo lists the Tier-1/Tier-2 networks whose PoP
// deployments Fig. 11/12 compare against the clouds (the paper's §9
// cohort).
func transitProvidersForGeo(in *topogen.Internet) []astopo.ASN {
	list := []astopo.ASN{
		2914, 6939, 7018, 6453, 3491, 1273, 6461, 1239, 12956, 1299, 6762, 5511, 4637, 3257,
	}
	var out []astopo.ASN
	for _, a := range list {
		if len(in.PoPsOf(a)) > 0 {
			out = append(out, a)
		}
	}
	return out
}

func cloudPoPUnion(in *topogen.Internet) []geo.CityID {
	var sets [][]geo.CityID
	for _, c := range Clouds() {
		sets = append(sets, in.PoPsOf(in.Clouds[c]))
	}
	return geo.Union(sets...)
}

func transitPoPUnion(in *topogen.Internet) []geo.CityID {
	var sets [][]geo.CityID
	for _, a := range transitProvidersForGeo(in) {
		sets = append(sets, in.PoPsOf(a))
	}
	return geo.Union(sets...)
}

// Fig11Result classifies PoP cities as cloud-only, transit-only, or both.
type Fig11Result struct {
	Deploy geo.DeploymentMap
	// CloudOnlyNames lists the cloud-exclusive cities (the paper finds
	// exactly Shanghai and Beijing).
	CloudOnlyNames []string
}

// Fig11 compares the cloud and transit PoP footprints.
func Fig11(env *Env) (*Fig11Result, error) {
	in := env.In2020
	dm := geo.CompareDeployments(cloudPoPUnion(in), transitPoPUnion(in))
	res := &Fig11Result{Deploy: dm}
	cities := geo.Cities()
	for _, id := range dm.CloudOnly {
		res.CloudOnlyNames = append(res.CloudOnlyNames, cities[id].Name)
	}
	sort.Strings(res.CloudOnlyNames)
	return res, nil
}

func printFig11(w io.Writer, _ *Env, res *Fig11Result) error {
	// Terminal rendering of the deployment map: B = both cohorts,
	// T = transit only, C = cloud only, dots = other gazetteer cities.
	markers := map[geo.CityID]rune{}
	for _, id := range res.Deploy.Both {
		markers[id] = 'B'
	}
	for _, id := range res.Deploy.TransitOnly {
		markers[id] = 'T'
	}
	for _, id := range res.Deploy.CloudOnly {
		markers[id] = 'C'
	}
	if err := geo.RenderASCIIMap(w, markers, []rune{'B', 'T', 'C'}, 100); err != nil {
		return err
	}
	fmt.Fprintln(w, "B = cloud+transit PoPs, T = transit only, C = cloud only")
	fmt.Fprintf(w, "PoP cities: both=%d transit-only=%d cloud-only=%d\n",
		len(res.Deploy.Both), len(res.Deploy.TransitOnly), len(res.Deploy.CloudOnly))
	fmt.Fprintf(w, "cloud-only cities: %v\n", res.CloudOnlyNames)
	// Continental spread of transit-only cities (the paper: more unique
	// transit locations in South America, Africa, the Middle East).
	cities := geo.Cities()
	byCont := map[geo.Continent]int{}
	for _, id := range res.Deploy.TransitOnly {
		byCont[cities[id].Continent]++
	}
	for _, cont := range geo.Continents() {
		fmt.Fprintf(w, "  transit-only in %-14s %d\n", cont.String()+":", byCont[cont])
	}
	return nil
}

// Fig12Row is coverage at the paper's three radii.
type Fig12Row struct {
	Label    string
	Coverage [3]float64 // 500, 700, 1000 km
}

// Fig12Result holds per-continent rows for both cohorts (Fig. 12a) and
// per-provider rows (Fig. 12b).
type Fig12Result struct {
	CloudByContinent   []Fig12Row
	TransitByContinent []Fig12Row
	PerProvider        []Fig12Row
}

// Fig12 computes population coverage within 500/700/1000 km of PoPs.
func Fig12(env *Env) (*Fig12Result, error) {
	in := env.In2020
	cloud := cloudPoPUnion(in)
	transit := transitPoPUnion(in)
	res := &Fig12Result{}

	continentRows := func(pops []geo.CityID) []Fig12Row {
		var rows []Fig12Row
		world := Fig12Row{Label: "World"}
		for i, r := range geo.PaperRadiiKm {
			world.Coverage[i] = geo.CoveragePct(pops, r)
		}
		rows = append(rows, world)
		for _, cont := range geo.Continents() {
			row := Fig12Row{Label: cont.String()}
			for i, r := range geo.PaperRadiiKm {
				row.Coverage[i] = geo.CoverageByContinent(pops, r)[cont]
			}
			rows = append(rows, row)
		}
		return rows
	}
	res.CloudByContinent = continentRows(cloud)
	res.TransitByContinent = continentRows(transit)

	providers := append([]astopo.ASN{}, transitProvidersForGeo(in)...)
	for _, c := range Clouds() {
		providers = append(providers, in.Clouds[c])
	}
	for _, a := range providers {
		row := Fig12Row{Label: in.NameOf(a)}
		for i, r := range geo.PaperRadiiKm {
			row.Coverage[i] = geo.CoveragePct(in.PoPsOf(a), r)
		}
		res.PerProvider = append(res.PerProvider, row)
	}
	sort.Slice(res.PerProvider, func(i, j int) bool {
		return res.PerProvider[i].Coverage[0] < res.PerProvider[j].Coverage[0]
	})
	return res, nil
}

func printFig12(w io.Writer, _ *Env, res *Fig12Result) error {
	printRows := func(title string, rows []Fig12Row) {
		fmt.Fprintf(w, "%s\n%-16s %8s %8s %8s\n", title, "", "500km", "700km", "1000km")
		for _, r := range rows {
			fmt.Fprintf(w, "%-16s %7.1f%% %7.1f%% %7.1f%%\n", r.Label, r.Coverage[0], r.Coverage[1], r.Coverage[2])
		}
	}
	printRows("cloud providers (union), by continent:", res.CloudByContinent)
	printRows("transit providers (union), by continent:", res.TransitByContinent)
	printRows("per provider (sorted ascending by 500 km coverage):", res.PerProvider)
	return nil
}

// Table3Row reproduces Appendix C for one network.
type Table3Row struct {
	Name      string
	AS        astopo.ASN
	PoPs      int
	Hostnames int
	PctRDNS   float64
}

// Table3 confirms PoPs from synthesized rDNS.
func Table3(env *Env) ([]Table3Row, error) {
	in := env.In2020
	corpus, err := env.RDNS2020()
	if err != nil {
		return nil, err
	}
	networks := append([]astopo.ASN{}, transitProvidersForGeo(in)...)
	for _, c := range Clouds() {
		networks = append(networks, in.Clouds[c])
	}
	var rows []Table3Row
	for _, a := range networks {
		conv := rdns.ConventionFor(a, in.NameOf(a))
		confirmed, total, hostnames := rdns.ConfirmedPoPs(in, corpus, a, conv.Regexp)
		row := Table3Row{Name: in.NameOf(a), AS: a, PoPs: total, Hostnames: hostnames}
		if total > 0 {
			row.PctRDNS = 100 * float64(confirmed) / float64(total)
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].PctRDNS > rows[j].PctRDNS })
	return rows, nil
}

func printTable3(w io.Writer, _ *Env, rows []Table3Row) error {
	fmt.Fprintf(w, "%-18s %8s %12s %8s\n", "network", "PoPs", "hostnames", "% rDNS")
	var confirmedSum, totalSum float64
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %8d %12d %7.1f%%\n", r.Name, r.PoPs, r.Hostnames, r.PctRDNS)
		confirmedSum += r.PctRDNS / 100 * float64(r.PoPs)
		totalSum += float64(r.PoPs)
	}
	fmt.Fprintf(w, "overall: %.0f%% of PoPs confirmed via rDNS (paper: 73%%)\n", 100*confirmedSum/totalSum)
	return nil
}
