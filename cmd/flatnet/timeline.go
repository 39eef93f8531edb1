package main

// `flatnet timeline` is the longitudinal toolchain: walk the 2015–2025
// preset series, freeze single years to snapshots, derive the growth
// delta between adjacent years, and apply a delta to a base snapshot.
// Everything is deterministic and hash-verified, so
//
//	timeline build -year N  →  timeline delta  →  timeline apply
//
// produces a snapshot byte-identical to `timeline build -year N+1` — the
// equivalence CI's timeline-smoke job enforces.

import (
	"flag"
	"fmt"
	"io"
	"time"

	"flatnet/internal/cluster"
	"flatnet/internal/experiments"
	"flatnet/internal/snapshot"
	"flatnet/internal/topogen"
)

func cmdTimeline(args []string, stdout io.Writer) error {
	if len(args) == 0 {
		return usagef("timeline: missing subcommand (report, build, delta, or apply)")
	}
	switch args[0] {
	case "report":
		return cmdTimelineReport(args[1:], stdout)
	case "build":
		return cmdTimelineBuild(args[1:], stdout)
	case "delta":
		return cmdTimelineDelta(args[1:], stdout)
	case "apply":
		return cmdTimelineApply(args[1:], stdout)
	}
	return usagef("timeline: unknown subcommand %q (want report, build, delta, or apply)", args[0])
}

// worldHash is the content address the serving and delta layers key on.
func worldHash(in *topogen.Internet) string {
	return cluster.DatasetHash(in.Graph, in.Tier1, in.Tier2)
}

// openTimelineSnap opens a world snapshot holding exactly one year — the
// shape `timeline build` and `timeline apply` write.
func openTimelineSnap(path string) (*snapshot.Reader, int, *topogen.Internet, error) {
	rd, err := snapshot.Open(path)
	if err != nil {
		return nil, 0, nil, err
	}
	years := rd.Years()
	if len(years) != 1 {
		rd.Close()
		return nil, 0, nil, fmt.Errorf("timeline: %s holds %d internet sections, want exactly one year", path, len(years))
	}
	in := rd.Internet(years[0])
	if in == nil {
		rd.Close()
		return nil, 0, nil, fmt.Errorf("timeline: %s has no internet section for %d", path, years[0])
	}
	return rd, years[0], in, nil
}

func cmdTimelineReport(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("timeline report", flag.ContinueOnError)
	scale := fs.Float64("scale", 0.04987, "topology scale (1.0 = the paper's 69,488 ASes)")
	snap := fs.String("snapshot", "", "print this snapshot's world(s) instead of the whole series")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return usagef("timeline report: unexpected argument %q", fs.Arg(0))
	}
	var rows []experiments.TimelineRow
	if *snap != "" {
		rd, err := snapshot.Open(*snap)
		if err != nil {
			return err
		}
		defer rd.Close()
		for _, year := range rd.Years() {
			row, err := experiments.TimelineRowFor(year, rd.Internet(year))
			if err != nil {
				return err
			}
			rows = append(rows, row)
		}
	} else {
		var err error
		if rows, err = experiments.TimelineAt(*scale); err != nil {
			return err
		}
	}
	experiments.PrintTimeline(stdout, rows)
	return nil
}

func cmdTimelineBuild(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("timeline build", flag.ContinueOnError)
	scale := fs.Float64("scale", 0.04987, "topology scale (1.0 = the paper's 69,488 ASes)")
	year := fs.Int("year", topogen.TimelineFirstYear, fmt.Sprintf("timeline year (%d–%d)", topogen.TimelineFirstYear, topogen.TimelineLastYear))
	out := fs.String("o", "timeline.snap", "output snapshot file")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return usagef("timeline build: unexpected argument %q", fs.Arg(0))
	}
	start := time.Now()
	in, err := topogen.GenerateYear(*year, *scale)
	if err != nil {
		return err
	}
	world := &snapshot.World{Scale: *scale, Internets: map[int]*topogen.Internet{*year: in}}
	if err := snapshot.WriteFile(*out, world); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s: year %d at scale %g, %d ASes, %d links, built in %v\n",
		*out, *year, *scale, in.Graph.NumASes(), in.Graph.NumLinks(), time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(stdout, "world %s\n", worldHash(in))
	return nil
}

func cmdTimelineDelta(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("timeline delta", flag.ContinueOnError)
	base := fs.String("base", "", "base world snapshot (required; from 'timeline build')")
	out := fs.String("o", "step.snapd", "output delta file")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *base == "" {
		return usagef("timeline delta: -base is required")
	}
	if fs.NArg() > 0 {
		return usagef("timeline delta: unexpected argument %q", fs.Arg(0))
	}
	rd, year, in, err := openTimelineSnap(*base)
	if err != nil {
		return err
	}
	defer rd.Close()
	scale := rd.Scale()
	g, err := topogen.EvolveStep(in, year+1, scale)
	if err != nil {
		return err
	}
	// The recorded result hash is what makes application fail closed, so
	// derive it by actually applying the delta, not by trusting the step.
	next, err := topogen.ApplyDelta(in, g)
	if err != nil {
		return err
	}
	d := &snapshot.Delta{
		FromYear: g.FromYear, ToYear: g.ToYear, Scale: g.Scale,
		BaseHash: worldHash(in), ResultHash: worldHash(next),
		Growth: g,
	}
	if err := snapshot.WriteDeltaFile(*out, d); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s: delta %d→%d at scale %g (%d new ASes, +%d/-%d links)\n",
		*out, d.FromYear, d.ToYear, d.Scale, len(g.NewASes), len(g.AddedLinks), len(g.RemovedLinks))
	fmt.Fprintf(stdout, "base   %s\nresult %s\n", d.BaseHash, d.ResultHash)
	return nil
}

func cmdTimelineApply(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("timeline apply", flag.ContinueOnError)
	base := fs.String("base", "", "base world snapshot (required)")
	deltaPath := fs.String("delta", "", "delta file to apply (required; from 'timeline delta')")
	out := fs.String("o", "evolved.snap", "output snapshot file")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *base == "" || *deltaPath == "" {
		return usagef("timeline apply: -base and -delta are required")
	}
	if fs.NArg() > 0 {
		return usagef("timeline apply: unexpected argument %q", fs.Arg(0))
	}
	d, err := snapshot.ReadDeltaFile(*deltaPath)
	if err != nil {
		return err
	}
	rd, year, in, err := openTimelineSnap(*base)
	if err != nil {
		return err
	}
	defer rd.Close()
	if h := worldHash(in); h != d.BaseHash {
		return fmt.Errorf("timeline apply: delta applies to world %.12s…, but %s (year %d) is %.12s…", d.BaseHash, *base, year, h)
	}
	next, err := topogen.ApplyDelta(in, d.Growth)
	if err != nil {
		return err
	}
	if h := worldHash(next); h != d.ResultHash {
		return fmt.Errorf("timeline apply: applied delta produced world %.12s…, but the delta promised %.12s…", h, d.ResultHash)
	}
	world := &snapshot.World{Scale: d.Scale, Internets: map[int]*topogen.Internet{d.ToYear: next}}
	if err := snapshot.WriteFile(*out, world); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s: year %d, %d ASes, %d links\n",
		*out, d.ToYear, next.Graph.NumASes(), next.Graph.NumLinks())
	fmt.Fprintf(stdout, "world %s (verified against the delta's recorded result hash)\n", d.ResultHash)
	return nil
}
