// Command bench is the flatnet benchmark: one invocation runs one named
// workload against the flatnet and flatnetd binaries built from the tree,
// checks what they answer, and prints every metric by name and unit. The
// last line of standard output is the one-object result BENCHMARK.json's
// contract asks for. See README.md.
//
//	bash bench/run.sh -workload point-cold -seed 1 -seconds 15 -trace 0
//	bash bench/run.sh -workload all
//	bash bench/run.sh -compare a.jsonl b.jsonl
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workloadNames is everything the bench can run; gatedWorkloads, its first
// two, is what BENCHMARK.json hands the driver. The other four run the same
// way by hand and in the tests, but their own runs spread by more than the
// driver allows on this box (README.md, Repeatability).
var (
	workloadNames  = []string{"paper-batch", "point-cold", "point-hot", "wide-local", "wide-cluster", "evolve-read"}
	gatedWorkloads = workloadNames[:2]
)

// config is one run's settings. Window lengths and set-up repetitions are
// constants of the benchmark, identical on every commit; -smoke swaps in a
// tiny world and one-second windows for the tests.
type config struct {
	root     string // the checkout
	workload string
	seed     int64
	seconds  int
	trace    bool
	smoke    bool
	out      string // JSONL file results are appended to
	golden   string // "check", "update" or "skip"

	scale       float64 // the daemon and batch world (1.0 = 69,488 ASes)
	evolveScale float64 // the evolve-read timeline
	setupReps   int
	clients     int // closed-loop callers and connections
}

func (c *config) window() time.Duration {
	d := time.Duration(c.seconds) * time.Second
	if c.trace {
		d /= 4 // the traced run's black-box phases only feed counters
	}
	return d
}

// envInfo is recorded with every result so two sets can be told apart.
type envInfo struct {
	Commit     string  `json:"commit"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Load1      float64 `json:"load1"`
	Pinned     bool    `json:"pinned"`      // generator and point daemons were confined to one CPU
	Steal      float64 `json:"steal_share"` // of the run's CPU time, taken by the hypervisor
	BuildS     float64 `json:"build_s"`
}

type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`    // samples behind the value
	Note  string  `json:"note,omitempty"` // which statistic, e.g. "p99"
}

type phaseCount struct {
	Name      string  `json:"name"`
	Attempted int     `json:"attempted"`
	Succeeded int     `json:"succeeded"`
	Failed    int     `json:"failed"`
	Seconds   float64 `json:"seconds"`
}

// result is one run, as appended to the -o file and read by -compare.
type result struct {
	Workload  string              `json:"workload"`
	Seed      int64               `json:"seed"`
	Seconds   int                 `json:"seconds"`
	Trace     bool                `json:"trace"`
	Smoke     bool                `json:"smoke,omitempty"`
	Env       envInfo             `json:"env"`
	Noisy     bool                `json:"noisy"`
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
	Phases    []phaseCount        `json:"phases"`
	Errors    []string            `json:"errors,omitempty"`
}

func main() { os.Exit(realMain(os.Args[1:])) }

func realMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	root := fs.String("root", "", "checkout to benchmark (default: the directory above bench/)")
	workload := fs.String("workload", "", "one of "+strings.Join(workloadNames, ", ")+", or all")
	seed := fs.Int64("seed", 1, "seed of every generated request list")
	seconds := fs.Int("seconds", 15, "length of the measured window")
	trace := fs.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	smoke := fs.Bool("smoke", false, "tiny world, one-second windows, goldens skipped (what the tests run)")
	out := fs.String("o", "", "append each result as one JSON line to this file (default bench/out/results.jsonl)")
	golden := fs.String("golden", "check", "check, update or skip the golden output hashes")
	compare := fs.Bool("compare", false, "compare two result files: bench -compare a.jsonl b.jsonl")
	summary := fs.Bool("summarize", false, "print the medians and quartiles of result files as JSON: bench -summarize a.jsonl...")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *summary {
		return summarizeFiles(os.Stdout, fs.Args())
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	cfg := config{
		root: *root, workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0,
		smoke: *smoke, out: *out, golden: *golden,
		scale: 1.0, evolveScale: 0.25, setupReps: 3, clients: 1,
	}
	if cfg.smoke {
		cfg.scale, cfg.evolveScale, cfg.seconds, cfg.golden = 0.02, 0.02, 1, "skip"
	}
	if cfg.trace {
		cfg.setupReps = 1
	}
	if cfg.root == "" {
		wd, err := os.Getwd()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		cfg.root = findRoot(wd)
	}
	if cfg.out == "" {
		cfg.out = filepath.Join(cfg.root, "bench", "out", "results.jsonl")
	}
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloadNames
	} else if !slices.Contains(workloadNames, cfg.workload) {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %s, or all)\n", cfg.workload, strings.Join(workloadNames, ", "))
		return 2
	}
	pinSelf()
	bins, buildS, err := buildProgram(cfg.root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, name := range names {
		cfg.workload = name
		res := runWorkload(cfg, bins, buildS)
		printResult(os.Stdout, res)
		if err := appendResult(cfg.out, res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// findRoot walks up from dir to the checkout: the directory holding both
// bench/ and the program's cmd/flatnetd.
func findRoot(dir string) string {
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "cmd", "flatnetd")); err == nil {
			return d
		}
		if d == filepath.Dir(d) {
			return dir
		}
	}
}

// binaries are the program under test, built from the tree.
type binaries struct{ flatnet, flatnetd string }

// buildProgram compiles cmd/flatnet and cmd/flatnetd into .bench_build/bin.
// The time is reported as build_s and counted in no metric.
func buildProgram(root string) (binaries, float64, error) {
	dir := filepath.Join(root, ".bench_build", "bin")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return binaries{}, 0, err
	}
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./cmd/flatnet", "./cmd/flatnetd")
	cmd.Dir = root
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	pl := findPlacement() // the compiler gets every CPU, wherever the bench itself sits
	if err := pl.startOn(pl.all, cmd); err != nil {
		return binaries{}, 0, err
	}
	if err := cmd.Wait(); err != nil {
		return binaries{}, 0, fmt.Errorf("go build ./cmd/flatnet ./cmd/flatnetd in %s: %v\n%s", root, err, out.Bytes())
	}
	return binaries{filepath.Join(dir, "flatnet"), filepath.Join(dir, "flatnetd")}, time.Since(t0).Seconds(), nil
}

func loadAvg1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64)
	return v
}

// cpuJiffies reads the machine-wide CPU line of /proc/stat: all jiffies, and
// those the hypervisor spent running something else while a vCPU wanted to
// run (steal) — the noisy-neighbour signal on a shared host.
func cpuJiffies() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line) {
		if i == 0 {
			continue // "cpu"
		}
		v, _ := strconv.ParseFloat(f, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}

func commitOf(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown" // the driver's checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

// runWorkload runs one workload start to finish: temp root, children,
// measurement, checks, teardown. It never panics on a failed run; failures
// land in the result.
func runWorkload(cfg config, bins binaries, buildS float64) *result {
	pl := findPlacement()
	nproc := len(pl.all.list()) // not runtime.NumCPU(): pinSelf has narrowed this process to one
	if nproc == 0 {
		nproc = runtime.NumCPU()
	}
	res := &result{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Smoke: cfg.smoke,
		Env: envInfo{Commit: commitOf(cfg.root), NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0),
			Go: runtime.Version(), Load1: loadAvg1(), BuildS: buildS},
		Correct: true,
		Metrics: map[string]measured{},
	}
	res.Noisy = res.Env.Load1 > float64(res.Env.NProc)
	total0, steal0 := cpuJiffies()
	tmp := filepath.Join(cfg.root, ".bench_build", "tmp", fmt.Sprintf("run-%d-%s", os.Getpid(), cfg.workload))
	_ = os.RemoveAll(tmp)
	ps, err := newProcs(tmp, pl)
	if err != nil {
		res.fail("temp root: %v", err)
		return res
	}
	if own, err := getAffinity(); err == nil {
		res.Env.Pinned = pl.split && len(own.list()) == 1 // pinSelf took
	}
	r := &run{cfg: cfg, bins: bins, ps: ps, res: res}
	if cfg.trace {
		r.rec = newRecorder()
	}
	logDir := filepath.Join(cfg.root, "bench", "out", cfg.workload)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		if _, ok := <-sig; ok {
			ps.cleanup(true, logDir)
			os.Exit(1)
		}
	}()
	defer func() {
		signal.Stop(sig)
		close(sig)
		ps.cleanup(!res.Correct, logDir)
	}()

	switch cfg.workload {
	case "paper-batch":
		err = r.paperBatch()
	case "point-cold":
		err = r.point(false)
	case "point-hot":
		err = r.point(true)
	case "wide-local":
		err = r.wide(false)
	case "wide-cluster":
		err = r.wide(true)
	case "evolve-read":
		err = r.evolveRead()
	}
	if err != nil {
		res.fail("%v", err)
	}
	if total1, steal1 := cpuJiffies(); total1 > total0 {
		res.Env.Steal = (steal1 - steal0) / (total1 - total0)
		res.Noisy = res.Noisy || res.Env.Steal > 0.02
	}
	r.finish()
	return res
}

func (res *result) fail(format string, args ...any) {
	res.Correct = false
	if len(res.Errors) < 20 {
		res.Errors = append(res.Errors, fmt.Sprintf(format, args...))
	}
}

// set records one metric under its declared unit.
func (res *result) set(name string, value float64, n int, note string) {
	d, ok := findDef(name, endToEnd, detail, perLayer)
	if !ok {
		panic("bench: metric " + name + " is not declared in metrics.go")
	}
	res.Metrics[name] = measured{Value: value, Unit: d.Unit, N: n, Note: note}
}

// promised is the list the driver expects on the result line: every end-to-
// end metric with tracing off, every per-layer metric with it on.
func (res *result) promised() []metricDef {
	if res.Trace {
		return perLayer
	}
	return endToEnd
}

func (res *result) phase(name string, attempted, failed int, d time.Duration) {
	res.Phases = append(res.Phases, phaseCount{Name: name, Attempted: attempted,
		Succeeded: attempted - failed, Failed: failed, Seconds: d.Seconds()})
	res.Attempted += attempted
	res.Failed += failed
}

// finish closes a run: a correctness failure fails every operation, the
// metrics the mode promises are all present, and the span file is written.
func (r *run) finish() {
	res := r.res
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
		res.Correct = false
	}
	if res.Failed > 0 && res.Correct {
		res.fail("%d of %d operations failed", res.Failed, res.Attempted)
	}
	if !res.Correct {
		res.Failed = res.Attempted // any mismatch marks the workload's operations failed
	}
	if !r.cfg.trace {
		res.set("fail_ratio", float64(res.Failed)/float64(res.Attempted), res.Attempted, "")
	}
	for _, d := range res.promised() {
		if _, ok := res.Metrics[d.Name]; !ok {
			if r.cfg.trace {
				res.set(d.Name, 0, 0, "layer idle on this workload")
			} else if res.Correct {
				res.fail("metric %s was not measured", d.Name)
			}
		}
	}
	if r.rec != nil {
		path := filepath.Join(r.cfg.root, "bench", "out", "trace-"+r.cfg.workload+".jsonl")
		if err := r.rec.writeFile(path); err != nil {
			res.fail("writing spans: %v", err)
		}
	}
}

// printResult prints the run for people, then the contract's one line.
func printResult(w *os.File, res *result) {
	fmt.Fprintf(w, "# flatnet bench: workload=%s seed=%d seconds=%d trace=%v commit=%.12s nproc=%d gomaxprocs=%d go=%s load1=%.2f steal=%.3f noisy=%v pinned=%v build_s=%.3f\n",
		res.Workload, res.Seed, res.Seconds, res.Trace, res.Env.Commit, res.Env.NProc, res.Env.GOMAXPROCS,
		res.Env.Go, res.Env.Load1, res.Env.Steal, res.Noisy, res.Env.Pinned, res.Env.BuildS)
	for _, p := range res.Phases {
		fmt.Fprintf(w, "phase %-24s attempted=%-6d succeeded=%-6d failed=%-4d %.3f s\n", p.Name, p.Attempted, p.Succeeded, p.Failed, p.Seconds)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		extra := ""
		if m.N > 0 {
			extra = fmt.Sprintf("  n=%d", m.N)
		}
		if m.Note != "" {
			extra += "  (" + m.Note + ")"
		}
		fmt.Fprintf(w, "metric %-34s %14.4f %-6s%s\n", n, m.Value, m.Unit, extra)
	}
	for _, e := range res.Errors {
		fmt.Fprintf(w, "error  %s\n", e)
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]mv{}}
	for _, d := range res.promised() {
		line.Metrics[d.Name] = mv{res.Metrics[d.Name].Value, d.Unit}
	}
	b, _ := json.Marshal(line)
	fmt.Fprintf(w, "%s\n", b)
}

func appendResult(path string, res *result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
