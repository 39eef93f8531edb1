package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"flatnet/internal/experiments"
	"flatnet/internal/snapshot"
)

// cmdSnapshot dispatches the snapshot subcommands: `build` freezes a
// generated world (both presets' topologies and population models) into a
// binary snapshot, `info` lists a snapshot's sections without decoding
// payloads.
func cmdSnapshot(args []string, stdout io.Writer) error {
	if len(args) == 0 {
		return usagef("snapshot: missing subcommand (build or info)")
	}
	switch args[0] {
	case "build":
		return cmdSnapshotBuild(args[1:], stdout)
	case "info":
		return cmdSnapshotInfo(args[1:], stdout)
	}
	return usagef("snapshot: unknown subcommand %q (want build or info)", args[0])
}

func cmdSnapshotBuild(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("snapshot build", flag.ContinueOnError)
	scale := fs.Float64("scale", 0.04987, "topology scale (1.0 = the paper's 69,488 ASes)")
	out := fs.String("o", "flatnet.snap", "output snapshot file")
	// Every snapshot holds the world alone; plans, rDNS and traces are
	// rebuilt from it on demand. These two flags still parse, and change
	// nothing, so older build commands keep working.
	fs.Bool("bare", false, "accepted and ignored: every snapshot holds only the topologies and population models")
	traces := fs.String("traces", "none", "accepted only as none: trace campaigns are not stored, they are rebuilt from the world on demand")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return usagef("snapshot build: unexpected argument %q", fs.Arg(0))
	}
	if *traces != "none" {
		return usagef("snapshot build: -traces %s: traces are not stored in a snapshot (they are rebuilt from its world on demand); only -traces none is accepted", *traces)
	}
	start := time.Now()
	env, err := experiments.NewEnv(*scale)
	if err != nil {
		return err
	}
	built := time.Since(start)
	// The file's sha256 is its content address (what a cluster worker
	// syncs by); it is taken from the bytes as they are written.
	sum := sha256.New()
	if err := snapshot.WriteFile(*out, env.World(), sum); err != nil {
		return err
	}
	st, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s: %.1f MiB, scale %g, built in %v\n",
		*out, float64(st.Size())/(1<<20), *scale, built.Round(time.Millisecond))
	fmt.Fprintf(stdout, "sha256 %x\n", sum.Sum(nil))
	return nil
}

func cmdSnapshotInfo(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("snapshot info", flag.ContinueOnError)
	verify := fs.Bool("verify", false, "checksum every section, including the mmap-served hot arrays")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return usagef("snapshot info: exactly one snapshot file expected")
	}
	path := fs.Arg(0)
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	info, err := snapshot.ReadInfo(raw)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s: version %d, scale %g, %d sections\n",
		path, info.Version, info.Scale, len(info.Sections))
	fmt.Fprintf(stdout, "sha256 %x\n", sha256.Sum256(raw))
	for _, s := range info.Sections {
		fmt.Fprintf(stdout, "  %-16s %4d  %12d B\n", s.Label, s.Year, s.Length)
	}
	if info.Delta != nil {
		// Delta files carry lineage instead of worlds: print the base→result
		// chain so operators can line up a delta against `timeline build`
		// output (the world hashes) before applying it.
		fmt.Fprintf(stdout, "delta  %d→%d\n", info.Delta.FromYear, info.Delta.ToYear)
		fmt.Fprintf(stdout, "base   %s\n", info.Delta.BaseHash)
		fmt.Fprintf(stdout, "result %s\n", info.Delta.ResultHash)
	}
	if *verify {
		if info.Delta != nil {
			_, err = snapshot.DecodeDelta(raw)
		} else {
			err = verifyWorldFile(path)
		}
		if err != nil {
			return fmt.Errorf("snapshot info: verify: %w", err)
		}
		fmt.Fprintln(stdout, "verified: every section checksum OK")
	}
	return nil
}

// verifyWorldFile opens a world file as `run -snapshot` does and verifies
// every section.
func verifyWorldFile(path string) error {
	rd, err := snapshot.Open(path)
	if err != nil {
		return err
	}
	defer rd.Close()
	return rd.Verify()
}
