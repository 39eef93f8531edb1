// Command flatnet reproduces the experiments of "Cloud Provider
// Connectivity in the Flat Internet" (IMC 2020) over synthetic Internet
// topologies, and provides utilities for inspecting and exporting them.
//
// Usage:
//
//	flatnet list
//	flatnet run [-scale 0.04987] [-snapshot file] [-j n] <experiment-id>... | all
//	flatnet gen [-scale 0.04987] [-year 2020] [-o topology.txt]
//	flatnet stats [-scale 0.04987] [-year 2020]
//	flatnet reach [-scale 0.04987] [-year 2020] -as 15169 [-kind hierarchy-free]
//	flatnet snapshot build [-scale 0.04987] [-o flatnet.snap]
//	flatnet snapshot info <flatnet.snap>
//	flatnet timeline report [-scale 0.04987] [-snapshot file]
//	flatnet timeline build -year 2016 [-scale 0.04987] [-o y2016.snap]
//	flatnet timeline delta -base y2016.snap [-o step.snapd]
//	flatnet timeline apply -base y2016.snap -delta step.snapd [-o y2017.snap]
//	flatnet serve [-addr 127.0.0.1:8080] [-snapshot flatnet.snap]
//
// Exit codes: 0 on success, 1 on runtime failure, 2 on usage mistakes
// (unknown subcommands, bad flags, missing required arguments).
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"time"

	"flatnet/internal/astopo"
	"flatnet/internal/core"
	"flatnet/internal/experiments"
	"flatnet/internal/population"
	"flatnet/internal/serve"
	"flatnet/internal/snapshot"
	"flatnet/internal/topogen"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// usageError marks an error as a usage mistake, mapped to exit code 2.
// printed records that the message already reached the user (FlagSets with
// ContinueOnError write their own diagnostics), so run does not repeat it.
type usageError struct {
	err     error
	printed bool
}

func (e *usageError) Error() string { return e.err.Error() }
func (e *usageError) Unwrap() error { return e.err }

func usagef(format string, args ...any) error {
	return &usageError{err: fmt.Errorf(format, args...)}
}

// parseFlags parses with uniform error handling: -h surfaces the FlagSet's
// own help (exit 0), anything else becomes a usage error (exit 2).
func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return &usageError{err: err, printed: true}
	}
	return nil
}

// run dispatches the subcommand and maps its error to an exit code; main
// is only the os.Exit shim so tests can drive the full CLI in-process.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	var err error
	switch args[0] {
	case "list":
		err = cmdList(stdout)
	case "run":
		err = cmdRun(args[1:])
	case "gen":
		err = cmdGen(args[1:])
	case "stats":
		err = cmdStats(args[1:])
	case "reach":
		err = cmdReach(args[1:])
	case "leaks":
		err = cmdLeaks(args[1:])
	case "audit":
		err = cmdAudit(args[1:])
	case "collect":
		err = cmdCollect(args[1:])
	case "trace":
		err = cmdTrace(args[1:])
	case "snapshot":
		err = cmdSnapshot(args[1:], stdout)
	case "timeline":
		err = cmdTimeline(args[1:], stdout)
	case "serve":
		err = cmdServe(args[1:], stdout, stderr)
	case "-h", "--help", "help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "flatnet: unknown command %q\n", args[0])
		usage(stderr)
		return 2
	}
	switch {
	case err == nil:
		return 0
	case errors.Is(err, flag.ErrHelp):
		return 0
	default:
		var ue *usageError
		if errors.As(err, &ue) {
			if !ue.printed {
				fmt.Fprintln(stderr, "flatnet:", err)
			}
			fmt.Fprintln(stderr, "run 'flatnet help' for usage")
			return 2
		}
		fmt.Fprintln(stderr, "flatnet:", err)
		return 1
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage:
  flatnet list                                  list experiments
  flatnet run [-scale f] <id>... | all          run experiments
  flatnet gen [-scale f] [-year y] [-o file]    export topology (CAIDA serial-1)
  flatnet stats [-scale f] [-year y]            topology statistics
  flatnet reach [-scale f] [-year y] -as n      reachability of one AS
  flatnet leaks [-scale f] [-year y] -as n      route-leak scenario table
  flatnet audit [-f file | -scale f -year y]    structural topology checks
  flatnet collect [-vps n] [-o rib.mrt]         simulate collectors, write MRT
  flatnet trace [-cloud C] [-o traces.json]     cloud traceroute campaign
  flatnet snapshot build [-scale f] [-o file]   freeze a generated world to a binary snapshot
  flatnet snapshot info <file>                  list a snapshot's sections
  flatnet timeline report [-scale f]            per-cloud reachability, 2015-2025
  flatnet timeline build -year y [-o file]      freeze one timeline year to a snapshot
  flatnet timeline delta -base file [-o file]   derive the next year's growth delta
  flatnet timeline apply -base f -delta f       apply a delta (hash-verified)
  flatnet serve [-addr host:port]               HTTP query daemon (see flatnetd)`)
}

func cmdList(stdout io.Writer) error {
	for _, r := range experiments.Registry {
		fmt.Fprintf(stdout, "%-10s %s\n", r.ID, r.Title)
	}
	return nil
}

// cmdServe is `flatnetd` mounted as a subcommand; both share serve.RunCLI.
func cmdServe(args []string, stdout, stderr io.Writer) error {
	err := serve.RunCLI(args, stdout, stderr)
	if err != nil && serve.IsUsageError(err) {
		return &usageError{err: err, printed: true}
	}
	return err
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	scale := fs.Float64("scale", 0.04987, "topology scale (1.0 = the paper's 69,488 ASes)")
	outdir := fs.String("outdir", "", "also write machine-readable CSV artifacts to this directory")
	snap := fs.String("snapshot", "", "load the environment from a binary snapshot instead of generating (see 'flatnet snapshot build')")
	verify := fs.Bool("verify", false, "with -snapshot: checksum every section, including the mmap-served hot arrays, before running")
	jobs := fs.Int("j", runtime.GOMAXPROCS(0), "experiments run concurrently; output stays in registry order")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			return err
		}
	}
	ids := fs.Args()
	if len(ids) == 0 {
		return usagef("run: no experiment ids given (try 'flatnet list' or 'flatnet run all')")
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = ids[:0]
		for _, r := range experiments.Registry {
			ids = append(ids, r.ID)
		}
	}
	runners := make([]experiments.Runner, len(ids))
	for i, id := range ids {
		r, ok := experiments.ByID(id)
		if !ok {
			return fmt.Errorf("run: unknown experiment %q", id)
		}
		runners[i] = r
	}
	start := time.Now()
	var env *experiments.Env
	if *snap != "" {
		var err error
		if env, err = loadSnapshotEnv(*snap, *verify); err != nil {
			return err
		}
		kind := "decoded"
		if env.Mapped() {
			kind = "mapped"
		}
		fmt.Printf("# %s snapshot %s: 2020 (%d ASes, %d links) and 2015 (%d ASes, %d links) at scale %g in %v\n",
			kind, *snap, env.In2020.Graph.NumASes(), env.In2020.Graph.NumLinks(),
			env.In2015.Graph.NumASes(), env.In2015.Graph.NumLinks(),
			env.Scale, time.Since(start).Round(time.Millisecond))
	} else {
		var err error
		if env, err = experiments.NewEnv(*scale); err != nil {
			return err
		}
		fmt.Printf("# generated 2020 (%d ASes, %d links) and 2015 (%d ASes, %d links) presets in %v\n",
			env.In2020.Graph.NumASes(), env.In2020.Graph.NumLinks(),
			env.In2015.Graph.NumASes(), env.In2015.Graph.NumLinks(),
			time.Since(start).Round(time.Millisecond))
	}

	// Experiments run concurrently (bounded by -j); each renders into its
	// own buffer and results stream to stdout in registry order as they
	// finish, so the output is byte-identical to a serial run. Lazy env
	// artifacts are safe to demand concurrently: builds coalesce per key.
	type result struct {
		out   bytes.Buffer
		notes []string
		took  time.Duration
		err   error
	}
	results := make([]result, len(runners))
	done := make([]chan struct{}, len(runners))
	for i := range done {
		done[i] = make(chan struct{})
	}
	workers := *jobs
	if workers < 1 {
		workers = 1
	}
	sem := make(chan struct{}, workers)
	for i := range runners {
		go func(i int) {
			defer close(done[i])
			sem <- struct{}{}
			defer func() { <-sem }()
			r, res := runners[i], &results[i]
			t0 := time.Now()
			tables, err := r.Run(env, &res.out)
			if err != nil {
				res.err = fmt.Errorf("%s: %w", r.ID, err)
				return
			}
			if *outdir != "" && tables != nil {
				for _, tbl := range tables() {
					path := fmt.Sprintf("%s/%s.csv", *outdir, tbl.Name)
					if err := writeToFile(path, func(f *os.File) error { return tbl.WriteCSV(f) }); err != nil {
						res.err = err
						return
					}
					res.notes = append(res.notes, fmt.Sprintf("-- wrote %s", path))
				}
			}
			res.took = time.Since(t0)
		}(i)
	}
	for i, r := range runners {
		<-done[i]
		res := &results[i]
		if res.err != nil {
			return res.err
		}
		fmt.Printf("\n== %s — %s ==\n", r.ID, r.Title)
		os.Stdout.Write(res.out.Bytes())
		for _, n := range res.notes {
			fmt.Println(n)
		}
		fmt.Printf("-- %s done in %v\n", r.ID, res.took.Round(time.Millisecond))
	}
	return nil
}

// loadSnapshotEnv opens a snapshot on the zero-copy mmap path. The Reader
// stays open for the life of the process: the environment borrows its
// memory. verify runs Reader.Verify: a checksum pass over every section,
// including the hot arrays the mmap path otherwise never CRCs.
func loadSnapshotEnv(path string, verify bool) (*experiments.Env, error) {
	rd, err := snapshot.Open(path)
	if err != nil {
		return nil, err
	}
	if verify {
		if err := rd.Verify(); err != nil {
			return nil, err
		}
	}
	return experiments.NewEnvFromSnapshot(rd)
}

func genPreset(scale float64, year int) (*topogen.Internet, error) {
	switch year {
	case 2020:
		return topogen.Generate(topogen.Internet2020(scale))
	case 2015:
		return topogen.Generate(topogen.Internet2015(scale))
	}
	return nil, fmt.Errorf("unknown year %d (want 2015 or 2020)", year)
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	scale := fs.Float64("scale", 0.04987, "topology scale (1.0 = the paper's 69,488 ASes)")
	year := fs.Int("year", 2020, "preset year (2015 or 2020)")
	out := fs.String("o", "", "relationship output file (default stdout, CAIDA serial-1)")
	cones := fs.String("cones", "", "also write customer cones (CAIDA ppdc-ases format)")
	types := fs.String("types", "", "also write AS types (CAIDA as2type format)")
	orgs := fs.String("orgs", "", "also write AS organizations (CAIDA as-org2info format)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	in, err := genPreset(*scale, *year)
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := astopo.WriteRelationships(w, in.Graph); err != nil {
		return err
	}
	if *cones != "" {
		coneMap := make(map[astopo.ASN][]astopo.ASN, in.Graph.NumASes())
		for _, a := range in.Graph.ASes() {
			coneMap[a] = in.Graph.CustomerCone(a)
		}
		if err := writeToFile(*cones, func(f *os.File) error {
			return astopo.WritePPDCAses(f, coneMap)
		}); err != nil {
			return err
		}
	}
	if *types != "" {
		model := population.Build(in, 1.1)
		records := make(map[astopo.ASN]astopo.AS2TypeRecord, in.Graph.NumASes())
		for _, a := range in.Graph.ASes() {
			var label astopo.ASTypeLabel
			switch model.Type(a) {
			case population.TypeContent:
				label = astopo.TypeLabelContent
			case population.TypeEnterprise:
				label = astopo.TypeLabelEnterprise
			default:
				label = astopo.TypeLabelTransitAccess
			}
			records[a] = astopo.AS2TypeRecord{AS: a, Type: label}
		}
		if err := writeToFile(*types, func(f *os.File) error {
			return astopo.WriteAS2Type(f, records)
		}); err != nil {
			return err
		}
	}
	if *orgs != "" {
		db := &astopo.OrgDB{Orgs: map[string]astopo.Org{}, ByAS: map[astopo.ASN]astopo.ASOrg{}}
		for _, a := range in.Graph.ASes() {
			id := fmt.Sprintf("ORG-AS%d", a)
			db.Orgs[id] = astopo.Org{ID: id, Name: in.NameOf(a), Country: "ZZ", Source: "synthetic"}
			db.ByAS[a] = astopo.ASOrg{AS: a, Name: in.NameOf(a), OrgID: id}
		}
		if err := writeToFile(*orgs, func(f *os.File) error {
			return astopo.WriteASOrg(f, db)
		}); err != nil {
			return err
		}
	}
	return nil
}

func cmdAudit(args []string) error {
	fs := flag.NewFlagSet("audit", flag.ContinueOnError)
	file := fs.String("f", "", "CAIDA serial-1/serial-2 relationship file (default: generated preset)")
	scale := fs.Float64("scale", 0.04987, "topology scale when generating (1.0 = the paper's 69,488 ASes)")
	year := fs.Int("year", 2020, "preset year (when generating)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	var g *astopo.Graph
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			return err
		}
		defer f.Close()
		if g, err = astopo.ReadRelationships(f); err != nil {
			return err
		}
	} else {
		in, err := genPreset(*scale, *year)
		if err != nil {
			return err
		}
		g = in.Graph
	}
	issues := astopo.Audit(g)
	fmt.Printf("audited %d ASes, %d links: %d issue(s)\n", g.NumASes(), g.NumLinks(), len(issues))
	for _, i := range issues {
		fmt.Printf("  [%s] %s", i.Kind, i.Detail)
		if len(i.ASes) > 0 && len(i.ASes) <= 8 {
			fmt.Printf(" %v", i.ASes)
		}
		fmt.Println()
	}
	if len(issues) > 0 {
		return fmt.Errorf("audit: %d issue(s) found", len(issues))
	}
	return nil
}

func writeToFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	scale := fs.Float64("scale", 0.04987, "topology scale (1.0 = the paper's 69,488 ASes)")
	year := fs.Int("year", 2020, "preset year")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	in, err := genPreset(*scale, *year)
	if err != nil {
		return err
	}
	g := in.Graph
	p2p, p2c := 0, 0
	for _, l := range g.Links() {
		if l.Rel == astopo.P2P {
			p2p++
		} else {
			p2c++
		}
	}
	fmt.Printf("preset %d at scale %.2f\n", *year, *scale)
	fmt.Printf("ASes:  %d\n", g.NumASes())
	fmt.Printf("links: %d (p2c %d, p2p %d)\n", g.NumLinks(), p2c, p2p)
	fmt.Printf("tier1: %d, tier2: %d, IXPs: %d\n", len(in.Tier1), len(in.Tier2), len(in.IXPs))
	byClass := map[topogen.ASClass]int{}
	for i := range g.ASes() {
		byClass[in.ClassAt(i)]++
	}
	for _, c := range []topogen.ASClass{topogen.ClassTier1, topogen.ClassTier2, topogen.ClassTransit,
		topogen.ClassAccess, topogen.ClassContent, topogen.ClassEnterprise, topogen.ClassCloud} {
		fmt.Printf("  %-12s %6d\n", c, byClass[c])
	}
	for _, name := range experiments.Clouds() {
		a := in.Clouds[name]
		fmt.Printf("%-10s AS%-7d providers=%d peers=%d PoPs=%d\n",
			name, a, len(g.Providers(a)), len(g.Peers(a)), len(in.PoPsOf(a)))
	}
	return nil
}

func cmdReach(args []string) error {
	fs := flag.NewFlagSet("reach", flag.ContinueOnError)
	scale := fs.Float64("scale", 0.04987, "topology scale (1.0 = the paper's 69,488 ASes)")
	year := fs.Int("year", 2020, "preset year")
	asn := fs.String("as", "", "origin ASN (required)")
	kind := fs.String("kind", "hierarchy-free", "full | provider-free | tier1-free | hierarchy-free")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *asn == "" {
		return usagef("reach: -as is required")
	}
	v, err := strconv.ParseUint(*asn, 10, 32)
	if err != nil {
		return usagef("reach: bad ASN %q", *asn)
	}
	k, err := core.KindFromString(*kind)
	if err != nil {
		return usagef("reach: unknown kind %q", *kind)
	}
	in, err := genPreset(*scale, *year)
	if err != nil {
		return err
	}
	m := core.New(core.Dataset{Graph: in.Graph, Tier1: in.Tier1, Tier2: in.Tier2})
	n, err := m.Reachability(astopo.ASN(v), k)
	if err != nil {
		return err
	}
	total := in.Graph.NumASes() - 1
	fmt.Printf("%s reachability of %s (AS%d): %d / %d ASes (%.1f%%)\n",
		k, in.NameOf(astopo.ASN(v)), v, n, total, 100*float64(n)/float64(total))
	return nil
}
