package serve

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"flatnet/internal/astopo"
	"flatnet/internal/cluster"
	"flatnet/internal/core"
	"flatnet/internal/snapshot"
	"flatnet/internal/topogen"
)

// usageErr marks a RunCLI failure caused by bad flags or arguments (as
// opposed to a runtime failure), so callers can exit with a usage status.
type usageErr struct{ err error }

func (e *usageErr) Error() string { return e.err.Error() }
func (e *usageErr) Unwrap() error { return e.err }

// IsUsageError reports whether a RunCLI error was a flag or argument
// mistake rather than a runtime failure.
func IsUsageError(err error) bool {
	var ue *usageErr
	return errors.As(err, &ue)
}

// RunCLI is the shared entry point behind `flatnetd` and `flatnet serve`:
// it parses flags, loads or generates the topology once, starts the
// server, and blocks until SIGINT/SIGTERM, then drains in-flight queries.
// Flag errors are returned (ContinueOnError) so both callers can map them
// to a uniform usage exit.
func RunCLI(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	scale := fs.Float64("scale", 0.04987, "topology scale when generating (1.0 = the paper's 69,488 ASes)")
	year := fs.Int("year", 2020, "preset year (when generating; 2015 or 2020)")
	topo := fs.String("topo", "", "CAIDA serial-1/serial-2 relationship file (default: generated preset)")
	snap := fs.String("snapshot", "", "binary snapshot file (see 'flatnet snapshot build'; skips generation)")
	verify := fs.Bool("verify", false, "with -snapshot: checksum every section, including the mmap-served hot arrays, before serving")
	cacheSize := fs.Int("cache", 0, "result cache entries (default 4096)")
	timeout := fs.Duration("timeout", 0, "default per-request deadline (default 5s)")
	maxTimeout := fs.Duration("max-timeout", 0, "upper bound on client-requested deadlines (default 60s)")
	concurrency := fs.Int("concurrency", 0, "max concurrent computations (default GOMAXPROCS)")
	drain := fs.Duration("drain", 15*time.Second, "shutdown drain budget for in-flight queries")
	join := fs.String("join", "", "coordinator base URL to join as a shard worker (syncs the world by snapshot hash when not loaded locally)")
	advertise := fs.String("advertise", "", "externally reachable base URL advertised on join (default http://<bound addr>)")
	snapCache := fs.String("snapshot-cache", "", "directory for snapshots fetched from a coordinator (default <tmp>/flatnet-snapshots)")
	pprofAddr := fs.String("pprof", "", "listen address for net/http/pprof diagnostics (disabled unless set)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return &usageErr{err} // the FlagSet already printed the message
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "serve: unexpected argument %q\n", fs.Arg(0))
		return &usageErr{fmt.Errorf("serve: unexpected argument %q", fs.Arg(0))}
	}

	cfg := Config{
		CacheSize:      *cacheSize,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		MaxConcurrent:  *concurrency,
	}
	start := time.Now()
	if *topo != "" && *snap != "" {
		fmt.Fprintln(stderr, "serve: -topo and -snapshot are mutually exclusive")
		return &usageErr{errors.New("serve: -topo and -snapshot are mutually exclusive")}
	}
	httpClient := &http.Client{}
	if *join != "" && *snap == "" && *topo == "" {
		// State sync by content address: ask the coordinator what world it
		// serves, then materialize the exact snapshot bytes (cached across
		// restarts under the sha) instead of regenerating locally. Retries
		// cover the race where the worker starts before the coordinator
		// finishes loading.
		var info cluster.Info
		var ierr error
		for i := 0; i < 40; i++ {
			ictx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			info, ierr = cluster.FetchInfo(ictx, httpClient, *join)
			cancel()
			if ierr == nil {
				break
			}
			time.Sleep(250 * time.Millisecond)
		}
		if ierr != nil {
			return fmt.Errorf("serve: cannot reach coordinator %s: %w", *join, ierr)
		}
		dctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
		path, serr := cluster.EnsureSnapshot(dctx, httpClient, *join, info, *snapCache)
		cancel()
		if serr != nil {
			return serr
		}
		fmt.Fprintf(stdout, "flatnetd: synced world %.12s… from %s (snapshot %s)\n", info.World, *join, path)
		*snap = path
		*year = info.Year
	}
	if *snap != "" {
		// Zero-copy mmap path. The Reader stays open for the daemon's
		// lifetime — the served graph borrows its memory.
		rd, err := snapshot.Open(*snap)
		if err != nil {
			return err
		}
		if *verify {
			if err := rd.Verify(); err != nil {
				return err
			}
		}
		in := rd.Internet(*year)
		if in == nil {
			return fmt.Errorf("serve: snapshot %s has no %d internet section", *snap, *year)
		}
		cfg.Dataset = core.Dataset{Graph: in.Graph, Tier1: in.Tier1, Tier2: in.Tier2}
		cfg.Names = in.NameOf
		cfg.World = in
		cfg.SnapshotPath = *snap
	} else if *topo != "" {
		f, err := os.Open(*topo)
		if err != nil {
			return err
		}
		g, err := astopo.ReadRelationships(f)
		f.Close()
		if err != nil {
			return err
		}
		tier1, tier2 := InferTiers(g)
		cfg.Dataset = core.Dataset{Graph: g, Tier1: tier1, Tier2: tier2}
	} else {
		var spec topogen.Spec
		switch *year {
		case 2020:
			spec = topogen.Internet2020(*scale)
		case 2015:
			spec = topogen.Internet2015(*scale)
		default:
			return fmt.Errorf("serve: unknown year %d (want 2015 or 2020)", *year)
		}
		in, err := topogen.Generate(spec)
		if err != nil {
			return err
		}
		cfg.Dataset = core.Dataset{Graph: in.Graph, Tier1: in.Tier1, Tier2: in.Tier2}
		cfg.Names = in.NameOf
		cfg.World = in
		// Generated worlds stay joinable: encode the world as snapshot
		// bytes on first /v1/cluster/snapshot request. Generation and the
		// codec are both deterministic, so every worker that fetches these
		// bytes lands on the identical content address.
		genScale, genYear, genIn := *scale, *year, in
		cfg.SnapshotBytes = func() ([]byte, error) {
			var buf bytes.Buffer
			world := &snapshot.World{Scale: genScale, Internets: map[int]*topogen.Internet{genYear: genIn}}
			if err := snapshot.Write(&buf, world); err != nil {
				return nil, err
			}
			return buf.Bytes(), nil
		}
	}
	cfg.Year = *year

	srv, err := New(cfg)
	if err != nil {
		return err
	}
	bound, err := srv.Start(*addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "flatnetd: serving %d ASes, %d links (%d Tier-1, %d Tier-2; loaded in %v) on http://%s\n",
		cfg.Dataset.Graph.NumASes(), cfg.Dataset.Graph.NumLinks(),
		len(cfg.Dataset.Tier1), len(cfg.Dataset.Tier2),
		time.Since(start).Round(time.Millisecond), bound)

	if *pprofAddr != "" {
		// Opt-in only: the profiling surface binds a separate listener so
		// the serving port never exposes pprof.
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.ListenAndServe(*pprofAddr, pm); err != nil {
				fmt.Fprintf(stderr, "flatnetd: pprof listener: %v\n", err)
			}
		}()
		fmt.Fprintf(stdout, "flatnetd: pprof diagnostics on http://%s/debug/pprof/\n", *pprofAddr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *join != "" {
		adv := *advertise
		if adv == "" {
			adv = "http://" + bound.String()
		}
		slots := *concurrency
		if slots <= 0 {
			slots = runtime.GOMAXPROCS(0)
		}
		slots = min(slots, cluster.MaxSlots)
		jr := cluster.JoinRequest{Addr: cluster.CanonicalAddr(adv), World: srv.WorldID(), Slots: slots, Wire: cluster.WireVersion}
		if err := cluster.JoinRetry(ctx, httpClient, *join, jr, 5*time.Second); err != nil {
			return fmt.Errorf("serve: join %s: %w", *join, err)
		}
		fmt.Fprintf(stdout, "flatnetd: joined coordinator %s as %s (%d slots)\n", *join, jr.Addr, slots)
	}
	<-ctx.Done()
	stop()
	fmt.Fprintln(stdout, "flatnetd: shutting down, draining in-flight queries")
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	return srv.Shutdown(dctx)
}

// InferTiers derives stand-in Tier-1/Tier-2 exclusion sets for topologies
// loaded from bare relationship files, which carry no tier labels (the
// paper takes these sets from ProbLink/AS-Rank; generated presets define
// them by construction). Tier-1s are provider-free ASes whose customer
// cone covers at least 1% of the graph; Tier-2s are the remaining ASes
// with cones covering at least 0.25%.
func InferTiers(g *astopo.Graph) (tier1, tier2 astopo.ASSet) {
	g.Freeze()
	n := g.NumASes()
	cones := g.ConeSizes()
	t1Min := n / 100
	if t1Min < 2 {
		t1Min = 2
	}
	t2Min := n / 400
	if t2Min < 2 {
		t2Min = 2
	}
	tier1, tier2 = astopo.ASSet{}, astopo.ASSet{}
	for i := 0; i < n; i++ {
		a := g.ASNAt(i)
		switch {
		case len(g.ProvidersOf(i)) == 0 && cones[i] >= t1Min:
			tier1.Add(a)
		case cones[i] >= t2Min:
			tier2.Add(a)
		}
	}
	return tier1, tier2
}
