package main

import (
	"flag"
	"fmt"
	"net/netip"
	"os"

	"flatnet/internal/astopo"
	"flatnet/internal/bgpfeed"
	"flatnet/internal/geo"
	"flatnet/internal/netdb"
	"flatnet/internal/population"
	"flatnet/internal/tracesim"
)

// cmdCollect simulates route collectors over a generated preset and writes
// the RIB snapshot in MRT TABLE_DUMP_V2 format — the same file shape real
// RouteViews collectors publish.
func cmdCollect(args []string) error {
	fs := flag.NewFlagSet("collect", flag.ContinueOnError)
	scale := fs.Float64("scale", 0.04987, "topology scale (1.0 = the paper's 69,488 ASes)")
	year := fs.Int("year", 2020, "preset year")
	nvps := fs.Int("vps", 40, "number of vantage points")
	out := fs.String("o", "rib.mrt", "output MRT file")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *nvps < 1 {
		return usagef("collect: -vps must be at least 1, got %d", *nvps)
	}
	in, err := genPreset(*scale, *year)
	if err != nil {
		return err
	}
	vps := bgpfeed.VantagePoints(in, *nvps)
	plan, err := netdb.Build(in)
	if err != nil {
		return err
	}
	var paths int
	if err := writeToFile(*out, func(f *os.File) error {
		var err error
		paths, err = bgpfeed.WriteMRT(f, in.Graph, vps, func(o astopo.ASN) (netip.Prefix, bool) {
			p, ok := plan.ASPrefix[o]
			return p, ok
		}, uint32(in.Spec.Seed))
		return err
	}); err != nil {
		return err
	}
	fmt.Printf("wrote %d paths from %d vantage points to %s (MRT TABLE_DUMP_V2)\n",
		paths, len(vps), *out)
	return nil
}

// cmdTrace runs the cloud traceroute campaign for one provider and writes
// the measurements as scamper-style JSON lines.
func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	scale := fs.Float64("scale", 0.04987, "topology scale (1.0 = the paper's 69,488 ASes)")
	year := fs.Int("year", 2020, "preset year")
	cloud := fs.String("cloud", "Google", "cloud provider (Google|Microsoft|IBM|Amazon)")
	vms := fs.Int("vms", 0, "VM count (0 = the paper's §4.1 deployment)")
	out := fs.String("o", "traces.json", "output JSON-lines file")
	aspop := fs.String("aspop", "", "also write APNIC-style population estimates to this file")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *vms < 0 {
		return usagef("trace: -vms must not be negative, got %d", *vms)
	}
	in, err := genPreset(*scale, *year)
	if err != nil {
		return err
	}
	plan, err := netdb.Build(in)
	if err != nil {
		return err
	}
	engine := tracesim.New(plan, tracesim.DefaultOptions(int64(*year)))
	vmList, err := engine.VMs(*cloud, *vms)
	if err != nil {
		return err
	}
	groups, err := engine.TraceAll(vmList)
	if err != nil {
		return err
	}
	n := 0
	if err := writeToFile(*out, func(f *os.File) error {
		for _, g := range groups {
			if err := tracesim.WriteJSON(f, g); err != nil {
				return err
			}
			n += len(g)
		}
		return nil
	}); err != nil {
		return err
	}
	fmt.Printf("wrote %d traceroutes from %d %s VMs to %s\n", n, len(vmList), *cloud, *out)
	if *aspop != "" {
		model := population.Build(in, 1.1)
		cities := geo.Cities()
		cc := func(a astopo.ASN) string {
			if city, ok := in.HomeCityOf(a); ok {
				return cities[city].Country
			}
			return "ZZ"
		}
		if err := writeToFile(*aspop, func(f *os.File) error {
			return population.WriteASPop(f, model.Export(cc))
		}); err != nil {
			return err
		}
		fmt.Printf("wrote population estimates to %s\n", *aspop)
	}
	return nil
}
