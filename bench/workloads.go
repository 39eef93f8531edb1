package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"time"
)

// run is one workload run in progress.
type run struct {
	cfg  config
	bins binaries
	ps   *procs
	res  *result
	rec  *recorder // nil with tracing off

	rssKiB    int64 // peak RSS summed over the measured system's processes
	pinDaemon bool  // daemons share the placement's one CPU with the generator (point workloads)
}

// ---- building worlds and starting daemons ----

// buildSnapshot freezes the scale's 2015+2020 world into a bare v2 snapshot,
// the way an operator would before starting a daemon.
func (r *run) buildSnapshot(name string) (string, error) {
	path := filepath.Join(r.ps.tmp, name)
	t0 := time.Now()
	if _, _, err := r.ps.runTool("snapshot-build", r.bins.flatnet, "snapshot", "build",
		"-scale", fmt.Sprint(r.cfg.scale), "-bare", "-traces", "none", "-o", path); err != nil {
		return "", err
	}
	st, err := os.Stat(path)
	if err != nil {
		return "", err
	}
	r.res.set("snapshot.build_s", time.Since(t0).Seconds(), 1, "")
	r.res.set("snapshot.bytes", float64(st.Size()), 1, "")
	return path, nil
}

// universe is the AS set the generator samples origins from: what
// `flatnet gen` exports for the same deterministic world, not an import of
// the program's packages.
func (r *run) universe(scale float64, year int) ([]uint32, error) {
	path := filepath.Join(r.ps.tmp, fmt.Sprintf("universe-%d.txt", year))
	t0 := time.Now()
	if _, _, err := r.ps.runTool("gen", r.bins.flatnet, "gen",
		"-scale", fmt.Sprint(scale), "-year", fmt.Sprint(year), "-o", path); err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	u, err := parseUniverse(raw)
	if err != nil {
		return nil, err
	}
	if len(u) < 64 {
		return nil, fmt.Errorf("universe of %d ASes is too small to sample from", len(u))
	}
	r.res.set("loadgen.universe_s", time.Since(t0).Seconds(), 1, "")
	return u, nil
}

type daemon struct {
	c    *child
	base string // http://127.0.0.1:<port>, parsed from the child's stdout
}

var (
	servingRE = regexp.MustCompile(`serving \d+ ASes.* on (http://[0-9.]+:\d+)`)
	joinedRE  = regexp.MustCompile(`joined coordinator`)
)

var plainHTTP = &http.Client{Timeout: 60 * time.Second}

func httpGet(url string) ([]byte, error) {
	resp, err := plainHTTP.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %.200s", url, resp.StatusCode, body)
	}
	return body, nil
}

// startDaemon starts one flatnetd on a kernel-chosen loopback port and
// returns once it answers /healthz.
func (r *run) startDaemon(name string, args ...string) (*daemon, error) {
	c, err := r.ps.start(name, r.pinDaemon, r.bins.flatnetd, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	if err != nil {
		return nil, err
	}
	m, err := c.waitLine(servingRE, 60*time.Second)
	if err != nil {
		return nil, err
	}
	d := &daemon{c: c, base: m[1]}
	if _, err := httpGet(d.base + "/healthz"); err != nil {
		return nil, err
	}
	return d, nil
}

// system is the set of program processes one workload measures.
type system struct {
	daemons []*daemon // the queried daemon first, then any workers
	snap    string
}

func (s *system) base() string { return s.daemons[0].base }

// stop drains and ends the system's processes; when count is set their
// peak RSS goes into rss_mib (discarded set-up repetitions do not count).
func (s *system) stop(r *run, count bool) {
	for i := len(s.daemons) - 1; i >= 0; i-- {
		rss := s.daemons[i].c.stop(5 * time.Second)
		if count {
			r.rssKiB += rss
		}
	}
	s.daemons = nil
}

// setUp brings the system up cfg.setupReps times — tearing all but the
// last down again — and reports their lower quartile (quietLow) as setup_s:
// everything from a cold start until the system has answered its first
// query.
func (r *run) setUp(setup func(rep int) (*system, error)) (*system, error) {
	var took []time.Duration
	var sys *system
	for rep := 0; rep < r.cfg.setupReps; rep++ {
		if sys != nil {
			sys.stop(r, false)
		}
		t0 := time.Now()
		s, err := setup(rep)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		took = append(took, time.Since(t0))
		sys = s
	}
	r.res.set("setup_s", quietLow(took).Seconds(), len(took), "lower quartile of the repetitions")
	for i, d := range took {
		r.res.phase(fmt.Sprintf("setup-%d", i+1), 1, 0, d)
	}
	return sys, nil
}

// daemonSetup is the set-up of the single-daemon workloads: build the
// snapshot, start flatnetd on it, ask it one question.
func (r *run) daemonSetup(first uint32) func(int) (*system, error) {
	return func(rep int) (*system, error) {
		snap, err := r.buildSnapshot(fmt.Sprintf("world-%d.snap", rep))
		if err != nil {
			return nil, err
		}
		d, err := r.startDaemon("flatnetd", "-snapshot", snap)
		if err != nil {
			return nil, err
		}
		if _, err := httpGet(fmt.Sprintf("%s/v1/reach?as=%d", d.base, first)); err != nil {
			return nil, err
		}
		return &system{daemons: []*daemon{d}, snap: snap}, nil
	}
}

// ---- /v1/stats, read from outside the program ----

type clusterStats struct {
	Retries      int64 `json:"retries"`
	Hedges       int64 `json:"hedges"`
	RemoteShards int64 `json:"remote_shards"`
	LocalShards  int64 `json:"local_shards"`
	WireBytes    int64 `json:"wire_bytes"`
	MultiBatches int64 `json:"wire_multi_batches"`
}

type daemonStats struct {
	CacheHits     int64         `json:"cache_hits"`
	CacheMisses   int64         `json:"cache_misses"`
	Coalesced     int64         `json:"coalesced"`
	Computations  int64         `json:"computations"`
	Deadlines     int64         `json:"deadlines_exceeded"`
	Shed          int64         `json:"shed"`
	Evolves       int64         `json:"evolves"`
	CollapseRatio float64       `json:"collapse_ratio"`
	World         string        `json:"world"`
	Cluster       *clusterStats `json:"cluster"`
}

func parseStats(raw []byte) (daemonStats, error) {
	var st daemonStats
	if err := json.Unmarshal(raw, &st); err != nil {
		return st, fmt.Errorf("/v1/stats: %w", err)
	}
	if st.Cluster == nil {
		st.Cluster = &clusterStats{}
	}
	return st, nil
}

func scrapeStats(base string) (daemonStats, error) {
	raw, err := httpGet(base + "/v1/stats")
	if err != nil {
		return daemonStats{}, err
	}
	return parseStats(raw)
}

// combine is a + sign×b over the counters; gauges keep a's value. With
// sign −1 it is the delta over a window, with +1 the sum of two windows.
func (a daemonStats) combine(b daemonStats, sign int64) daemonStats {
	d := a
	d.CacheHits += sign * b.CacheHits
	d.CacheMisses += sign * b.CacheMisses
	d.Coalesced += sign * b.Coalesced
	d.Computations += sign * b.Computations
	d.Deadlines += sign * b.Deadlines
	d.Shed += sign * b.Shed
	d.Evolves += sign * b.Evolves
	c := *a.Cluster
	c.Retries += sign * b.Cluster.Retries
	c.Hedges += sign * b.Cluster.Hedges
	c.RemoteShards += sign * b.Cluster.RemoteShards
	c.LocalShards += sign * b.Cluster.LocalShards
	c.WireBytes += sign * b.Cluster.WireBytes
	c.MultiBatches += sign * b.Cluster.MultiBatches
	d.Cluster = &c
	return d
}

func (a daemonStats) minus(b daemonStats) daemonStats { return a.combine(b, -1) }

func (d daemonStats) hitRatio() float64 {
	if d.CacheHits+d.CacheMisses == 0 {
		return 0
	}
	return float64(d.CacheHits) / float64(d.CacheHits+d.CacheMisses)
}

// setStats reports a window's counter deltas as the serve.* and cluster.*
// per-layer metrics.
func (r *run) setStats(d daemonStats) {
	res := r.res
	res.set("serve.cache_hit_ratio", d.hitRatio(), int(d.CacheHits+d.CacheMisses), "")
	res.set("serve.computations", float64(d.Computations), 0, "")
	res.set("serve.coalesced", float64(d.Coalesced), 0, "")
	res.set("serve.deadlines", float64(d.Deadlines), 0, "")
	res.set("serve.shed", float64(d.Shed), 0, "")
	c := d.Cluster
	res.set("cluster.remote_shards", float64(c.RemoteShards), 0, "")
	res.set("cluster.local_shards", float64(c.LocalShards), 0, "")
	res.set("cluster.retries", float64(c.Retries), 0, "")
	res.set("cluster.hedges", float64(c.Hedges), 0, "")
	ratio := 0.0
	if c.RemoteShards > 0 {
		ratio = float64(c.Hedges) / float64(c.RemoteShards)
	}
	res.set("cluster.hedge_ratio", ratio, int(c.RemoteShards), "hedges / remote shards")
	res.set("cluster.wire_bytes", float64(c.WireBytes), 0, "")
	res.set("cluster.multi_batches", float64(c.MultiBatches), 0, "")
}

// ---- correctness gates ----

// golden compares a hex digest with bench/golden/<name>.sha256, or rewrites
// the file under -golden update. The goldens pin the scale-1.0 world, so
// smoke runs and the scale-0.25 timeline skip them.
func (r *run) golden(name, digest string) {
	if r.cfg.golden == "skip" {
		return
	}
	path := filepath.Join(r.cfg.root, "bench", "golden", name+".sha256")
	if r.cfg.golden == "update" {
		if err := os.WriteFile(path, []byte(digest+"\n"), 0o644); err != nil {
			r.res.fail("golden %s: %v", name, err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		r.res.fail("golden %s: %v", name, err)
		return
	}
	if strings.TrimSpace(string(want)) != digest {
		r.res.fail("golden %s: output hashes to %s, want %s", name, digest, strings.TrimSpace(string(want)))
	}
}

// probeRequests is the fixed 64-query probe set every daemon workload is
// checked with before it is timed: 44 reach, 15 reliance, 4 leak and one
// top-20 sweep over the four cloud ASes and twelve ASes spread evenly
// through the universe. It does not depend on the seed.
func probeRequests(universe []uint32) []request {
	ases := []uint32{}
	for _, l := range leakShapes {
		if i := sort.Search(len(universe), func(i int) bool { return universe[i] >= l.as }); i < len(universe) && universe[i] == l.as {
			ases = append(ases, l.as)
		}
	}
	for i := 0; i < 12; i++ {
		ases = append(ases, universe[i*len(universe)/12])
	}
	var reqs []request
	add := func(op, path string) {
		reqs = append(reqs, request{ID: len(reqs), Op: op, Method: http.MethodGet, Path: path})
	}
	for _, as := range ases {
		for _, k := range reachKinds {
			if len(reqs) < 44 {
				add("reach", fmt.Sprintf("/v1/reach?as=%d&kind=%s", as, k))
			}
		}
	}
	for _, as := range ases[:len(ases)-1] {
		add("reliance", fmt.Sprintf("/v1/reliance?as=%d&top=5", as))
	}
	for _, l := range leakShapes {
		add("leak", fmt.Sprintf("/v1/leak?as=%d&scenario=%s&trials=200&seed=7&hijack=%v&timeout=30s", l.as, l.scenario, l.hijack))
	}
	add("sweep", "/v1/sweep?kind=hierarchy-free&top=20&timeout=30s")
	return reqs
}

// probe plays the probe set and checks its answers against the golden.
func (r *run) probe(c *client, universe []uint32) {
	t0 := time.Now()
	h := sha256.New()
	reqs := probeRequests(universe)
	failed := 0
	for i := range reqs {
		body, err := c.do(&reqs[i])
		if err != nil {
			failed++
			r.res.fail("probe: %v", err)
			continue
		}
		fmt.Fprintf(h, "%s\n%s", reqs[i].Path, body)
	}
	r.res.phase("probe-set", len(reqs), failed, time.Since(t0))
	if failed == 0 {
		r.golden("probe", fmt.Sprintf("%x", h.Sum(nil)))
	}
}

// ---- reporting helpers ----

// latencyMetrics reports a closed-loop phase. The gated latency_ms, and
// throughput_rps and p99_ms beside it, are taken over the quiet quarter of
// the phase's 250 ms blocks (quietBlocks); the whole window's median and p99
// are kept as window_p50_ms and window_p99_ms to show how much of the run a
// neighbour disturbed.
func (r *run) latencyMetrics(lr loopResult) {
	res := r.res
	all := sortedCopy(lr.Lat)
	tp := tailPercentile(len(all))
	res.set("window_p50_ms", ms(percentile(all, 0.50)), len(all), "median of every request in the window")
	res.set("window_p99_ms", ms(percentile(all, 0.99)), len(all),
		fmt.Sprintf("highest supported percentile p%g = %.4f ms", tp*100, ms(percentile(all, tp))))
	quiet, kept := lr.quietBlocks()
	span, note := time.Duration(kept)*blockLen, fmt.Sprintf("the %d quietest of the window's %v blocks", kept, blockLen)
	if kept == 0 { // a smoke run's one-second window
		quiet, span, note = all, lr.Elapsed, "whole window"
	}
	n := len(quiet)
	res.set("latency_ms", ms(percentile(quiet, 0.50)), n, "median request, "+note)
	res.set("throughput_rps", float64(n)/span.Seconds(), n, "requests / s, "+note)
	note = "p99, " + note
	if b := beyond(n, 0.99); b < 10 {
		note += fmt.Sprintf("; only %d samples beyond it", b)
	}
	res.set("p99_ms", ms(percentile(quiet, 0.99)), n, note)
}

func (r *run) recordLoop(lr loopResult) {
	r.res.phase(lr.Name, lr.Attempted, lr.Failed, lr.Elapsed)
	if lr.FirstErr != nil {
		r.res.fail("%s: %v", lr.Name, lr.FirstErr)
	}
}

func (r *run) setRSS() {
	r.res.set("rss_mib", float64(r.rssKiB)/1024, 0, "peak RSS summed over the program's processes")
}

// ---- paper-batch ----

var doneLineRE = regexp.MustCompile(`(?m)^-- \S+ done in .*\n`)

// stableOutput strips what legitimately differs between two passes of
// `flatnet run`: the "# … in 3ms" header and the "-- <id> done in …" lines.
func stableOutput(out []byte) []byte {
	if bytes.HasPrefix(out, []byte("# ")) {
		if nl := bytes.IndexByte(out, '\n'); nl >= 0 {
			out = out[nl+1:]
		}
	}
	return doneLineRE.ReplaceAll(out, nil)
}

var doneInRE = regexp.MustCompile(`(?m)^-- (\S+) done in (\S+)$`)

// experimentTimes reads a pass's own "-- <id> done in …" lines.
func experimentTimes(out []byte) map[string]time.Duration {
	took := map[string]time.Duration{}
	for _, m := range doneInRE.FindAllSubmatch(out, -1) {
		if d, err := time.ParseDuration(string(m[2])); err == nil {
			took[string(m[1])] = d
		}
	}
	return took
}

// quietSum is the time of a unit of work made of slots that repeat — the
// experiments of a pass, the requests of a wide cycle: each slot's lower
// quartile over the repetitions (quietLow), summed. A neighbour's burst
// slows the slots it overlaps, in the repetitions it overlaps; the sum is
// the unit assembled from every slot's quiet repetitions.
func quietSum(slots [][]time.Duration) time.Duration {
	var sum time.Duration
	for _, s := range slots {
		sum += quietLow(s)
	}
	return sum
}

// paperBatch is the researcher's time-to-solution: the paper's tables and
// figures regenerated by one `flatnet run` over the full-scale snapshot.
func (r *run) paperBatch() error {
	var snap string
	_, err := r.setUp(func(rep int) (*system, error) {
		var err error
		if snap, err = r.buildSnapshot(fmt.Sprintf("world-%d.snap", rep)); err != nil {
			return nil, err
		}
		// The batch system is "up" once the CLI answers from the snapshot.
		_, _, err = r.ps.runTool("first-run", r.bins.flatnet, "run", "-snapshot", snap, "fig4")
		return &system{snap: snap}, err
	})
	if err != nil {
		return err
	}
	minPasses := 3
	if r.cfg.trace || r.cfg.smoke {
		minPasses = 1
	}
	// -j 1: the experiments run one after the other, each spread over the
	// cores by par, so a pass is its experiments' own times plus start-up,
	// and each of them is a slot that repeats from pass to pass.
	args := append([]string{"run", "-j", "1", "-snapshot", snap}, experimentIDs...)
	slots := make([][]time.Duration, 1+len(experimentIDs)) // slot 0: start-up, exit and printing
	var passes []time.Duration
	var first string
	start := time.Now()
	for len(passes) < minPasses || time.Since(start) < r.cfg.window() {
		name := fmt.Sprintf("pass-%d", len(passes)+1)
		t0 := time.Now()
		out, c, err := r.ps.runTool("run-pass", r.bins.flatnet, args...)
		d := time.Since(t0)
		if err != nil {
			r.res.phase(name, len(experimentIDs), len(experimentIDs), d)
			return err
		}
		r.res.phase(name, len(experimentIDs), 0, d)
		passes = append(passes, d)
		took, rest := experimentTimes(out), d
		for i, id := range experimentIDs {
			if _, ok := took[id]; !ok {
				return fmt.Errorf("%s printed no `-- %s done in …` line", name, id)
			}
			slots[1+i] = append(slots[1+i], took[id])
			rest -= took[id]
		}
		slots[0] = append(slots[0], rest)
		if rss := c.maxRSSKiB(); rss > r.rssKiB {
			r.rssKiB = rss
		}
		digest := fmt.Sprintf("%x", sha256.Sum256(stableOutput(out)))
		if first == "" {
			first = digest
			r.golden("paper-batch", digest)
		} else if digest != first {
			r.res.fail("pass %d printed different tables than pass 1 (%s vs %s)", len(passes), digest, first)
		}
	}
	pass := quietSum(slots)
	r.res.set("run_s", pass.Seconds(), len(passes), "sum of the experiments' (and start-up's) lower quartiles over the passes")
	r.res.set("latency_ms", ms(pass), len(passes), "run_s")
	r.res.set("window_p50_ms", ms(median(passes)), len(passes), "median wall time of a pass")
	r.res.set("throughput_rps", float64(len(experimentIDs))/pass.Seconds(), len(passes), "experiments / run_s")
	r.setRSS()
	if r.cfg.trace {
		return r.tracePaperBatch(snap)
	}
	return nil
}

// ---- point-cold and point-hot ----

const (
	hotSetSize  = 256   // ASes: 1,024 keys, well inside the 4,096-entry cache
	hotListLen  = 65536 // wraps harmlessly: every request is a hit anyway
	coldPerSec  = 5000  // generated requests per window second; ≈5× the measured rate, so no wrap
	traceReplay = 1300  // requests replayed through the layers by a traced run: ≥1,000 reach samples behind a p99
)

// point drives the interactive mix at one daemon, closed loop with one
// client, daemon and generator on one CPU (see placement): uniform origins
// that miss the cache (cold) or a Zipf-ranked working set that always hits
// it (hot).
func (r *run) point(hot bool) error {
	universe, err := r.universe(r.cfg.scale, 2020)
	if err != nil {
		return err
	}
	r.pinDaemon = true
	sys, err := r.setUp(r.daemonSetup(universe[0]))
	if err != nil {
		return err
	}
	c := newClient(sys.base(), r.cfg.clients)
	defer c.close()
	r.probe(c, universe)

	var reqs, warm []request
	if hot {
		set := hotSet(universe, hotSetSize)
		warm = hotKeys(set)
		reqs = hotRequests(r.cfg.seed, set, hotListLen)
		r.recordLoop(closedLoop(c, "warm-up", warm, r.cfg.clients, 0))
	} else {
		reqs = coldRequests(r.cfg.seed, universe, coldPerSec*r.cfg.seconds)
	}
	before, err := scrapeStats(sys.base())
	if err != nil {
		return err
	}
	lr := closedLoop(c, "closed-loop", reqs, r.cfg.clients, r.cfg.window())
	r.recordLoop(lr)
	after, err := scrapeStats(sys.base())
	if err != nil {
		return err
	}
	delta := after.minus(before)
	r.setStats(delta)
	if len(lr.Lat) == 0 {
		return fmt.Errorf("closed loop completed no request")
	}
	r.latencyMetrics(lr)
	// The workload is only what its name says if the cache behaved: all
	// hits when hot, next to none when cold.
	switch ratio := delta.hitRatio(); {
	case hot && ratio < 1:
		r.res.fail("point-hot window hit ratio is %.4f, want 1 (the warm-up should have filled the cache)", ratio)
	case !hot && ratio >= 0.05 && !r.cfg.smoke: // the smoke world has fewer keys than the cache has entries
		r.res.fail("point-cold window hit ratio is %.4f, want < 0.05", ratio)
	}
	if r.cfg.trace {
		rates, limit := [2]float64{200, 450}, 50*time.Millisecond
		if hot {
			rates, limit = [2]float64{500, 1500}, 10*time.Millisecond
		}
		r.openPhases(c, reqs[len(reqs)/2:], rates, limit)
	}
	sys.stop(r, true)
	r.setRSS()
	if r.cfg.trace {
		return r.tracePoint(sys.snap, hot, warm, reqs, r.res.Metrics["latency_ms"].Value)
	}
	return nil
}

// openPhases runs the two fixed-rate open-loop phases. They are reported,
// not gated: on a shared two-core box their tails did not repeat.
func (r *run) openPhases(c *client, reqs []request, rates [2]float64, limit time.Duration) {
	var late []time.Duration
	maxOK := 0.0
	for i, tag := range []string{"lo", "hi"} {
		half := reqs[i*len(reqs)/2 : (i+1)*len(reqs)/2]
		lr := openLoop(c, fmt.Sprintf("open-loop-%s@%g/s", tag, rates[i]), half, rates[i], r.cfg.window(), r.cfg.clients)
		r.recordLoop(lr)
		s := sortedCopy(lr.Lat)
		r.res.set("loadgen.open_p50_ms."+tag, ms(percentile(s, 0.50)), len(s), fmt.Sprintf("%g req/s, from due time", rates[i]))
		tp := tailPercentile(len(s))
		if tp > 0.99 {
			tp = 0.99
		}
		r.res.set("loadgen.open_p99_ms."+tag, ms(percentile(s, tp)), len(s), fmt.Sprintf("p%g at %g req/s, from due time", tp*100, rates[i]))
		if lr.Failed == 0 && !lr.BacklogGrew && percentile(s, tp) <= limit {
			maxOK = rates[i]
		}
		late = append(late, lr.Late...)
	}
	lateP99 := percentile(sortedCopy(late), 0.99)
	r.res.set("loadgen.late_ms_p99", ms(lateP99), len(late), "send time − due time while the generator was idle")
	r.res.set("loadgen.max_ok_rps", maxOK, 0, fmt.Sprintf("highest fixed rate with tail ≤ %v and no growing backlog", limit))
	if lateP99 > time.Millisecond {
		r.res.Noisy = true
	}
}

// ---- wide-local and wide-cluster ----

// wide plays cycles of cold all-AS sweeps, 2,000-trial leaks and 1,024-
// origin batches, one request at a time, at one daemon — alone, or as the
// coordinator of two single-slot workers.
func (r *run) wide(clustered bool) error {
	universe, err := r.universe(r.cfg.scale, 2020)
	if err != nil {
		return err
	}
	sys, err := r.setUp(func(rep int) (*system, error) {
		s, err := r.daemonSetup(universe[0])(rep)
		if err != nil || !clustered {
			return s, err
		}
		// Two single-slot workers that sync the world from the
		// coordinator by content address. -cache 1: workers cache shard
		// bodies per range, which would make the second "cold" sweep warm.
		t0 := time.Now()
		for w := 1; w <= 2; w++ {
			wd, err := r.startDaemon(fmt.Sprintf("worker-%d", w), "-join", s.base(), "-concurrency", "1", "-cache", "1",
				"-snapshot-cache", filepath.Join(r.ps.tmp, fmt.Sprintf("worker-%d-cache-%d", w, rep)))
			if err != nil {
				return nil, err
			}
			s.daemons = append(s.daemons, wd)
		}
		for _, wd := range s.daemons[1:] {
			if _, err := wd.c.waitLine(joinedRE, 60*time.Second); err != nil {
				return nil, err
			}
		}
		r.res.set("cluster.join_s", time.Since(t0).Seconds(), 2, "both workers started → joined")
		return s, nil
	})
	if err != nil {
		return err
	}
	c := newClient(sys.base(), 1)
	defer c.close()
	r.probe(c, universe)

	minCycles := 3
	if r.cfg.trace || r.cfg.smoke {
		minCycles = 1
	}
	cycles := wideCycles(r.cfg.seed, universe, 16, 1024)
	before, err := scrapeStats(sys.base())
	if err != nil {
		return err
	}
	slots := make([][]time.Duration, len(cycles[0]))
	bodies := map[int][]byte{}
	start := time.Now()
	for n := 0; n < len(cycles) && (n < minCycles || time.Since(start) < r.cfg.window()); n++ {
		t0 := time.Now()
		keep := bodies
		if n > 0 {
			keep = nil // the first cycle's bodies are what the cross-check replays
		}
		attempted, failed, err := playSerial(c, cycles[n], slots, keep)
		r.res.phase(fmt.Sprintf("cycle-%d", n+1), attempted, failed, time.Since(t0))
		if err != nil {
			r.res.fail("cycle %d: %v", n+1, err)
		}
	}
	after, err := scrapeStats(sys.base())
	if err != nil {
		return err
	}
	r.setStats(after.minus(before))
	// Each slot's latency is its lower quartile over the cycles (quietLow);
	// an operation's is the mean of its slots, the cycle's their sum.
	sum, count := map[string]time.Duration{}, map[string]int{}
	for i, lat := range slots {
		op := cycles[0][i].Op
		if len(lat) == 0 {
			return fmt.Errorf("no %s request in slot %d succeeded", op, i)
		}
		sum[op] += quietLow(lat)
		count[op]++
	}
	cycle := quietSum(slots)
	samples := len(slots[0])
	for op, name := range map[string]string{"sweep": "sweep_ms", "sweep-tier1": "sweep_tier1_ms", "leak": "leak_ms", "batch": "batch_ms"} {
		r.res.set(name, ms(sum[op])/float64(count[op]), samples*count[op], "mean over the op's slots of the slot's lower quartile")
	}
	r.res.set("cycle_s", cycle.Seconds(), samples, "sum of the slots' lower quartiles")
	r.res.set("throughput_rps", float64(len(slots))/cycle.Seconds(), samples, "requests of a cycle / cycle_s")
	r.res.set("latency_ms", ms(cycle), samples, "cycle_s")

	var workers []string
	for _, wd := range sys.daemons[1:] {
		workers = append(workers, wd.base)
	}
	if r.cfg.trace {
		// The in-bench pool needs the live workers, so the cluster layers
		// are traced before the system goes down.
		if err := r.traceWide(sys.snap, workers, universe); err != nil {
			return err
		}
	}
	sys.stop(r, true)
	r.setRSS()
	if clustered && !r.cfg.trace {
		return r.crossCheck(sys.snap, cycles[0], bodies)
	}
	return nil
}

// crossCheck is the cluster == single process gate: the first cycle's
// requests, replayed at a fresh stand-alone daemon on the same snapshot,
// must return the bytes the coordinator returned.
func (r *run) crossCheck(snap string, reqs []request, got map[int][]byte) error {
	t0 := time.Now()
	d, err := r.startDaemon("reference", "-snapshot", snap)
	if err != nil {
		return err
	}
	defer d.c.stop(5 * time.Second)
	c := newClient(d.base, 1)
	defer c.close()
	failed := 0
	for i := range reqs {
		rq := &reqs[i]
		want, err := c.do(rq)
		switch {
		case err != nil:
			failed++
			r.res.fail("cross-check: %v", err)
		case !bytes.Equal(want, got[rq.ID]):
			failed++
			r.res.fail("cross-check: %s %s: the cluster's body differs from the stand-alone daemon's", rq.Method, rq.Path)
		}
	}
	r.res.phase("cross-check", len(reqs), failed, time.Since(t0))
	return nil
}

// ---- evolve-read ----

const (
	evolveFirstYear = 2015
	evolveSteps     = 5                      // 2015 → 2020, the paper's two measurement years
	evolveEvery     = 700 * time.Millisecond // pause between swaps, beside the reads
)

type evolveStep struct {
	delta  []byte // the .snapd file, POSTed verbatim
	result string // the world hash the delta recorded as its result
}

// buildTimeline makes the base snapshot and the chain of deltas with the
// CLI: build 2015, then per year derive the delta (which prints the hash
// of the world it must produce) and apply it to get the next year's base.
func (r *run) buildTimeline(dir string) (string, []evolveStep, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", nil, err
	}
	snapOf := func(y int) string { return filepath.Join(dir, fmt.Sprintf("e%d.snap", y)) }
	if _, _, err := r.ps.runTool("timeline-build", r.bins.flatnet, "timeline", "build",
		"-year", fmt.Sprint(evolveFirstYear), "-scale", fmt.Sprint(r.cfg.evolveScale), "-o", snapOf(evolveFirstYear)); err != nil {
		return "", nil, err
	}
	steps := make([]evolveStep, evolveSteps)
	for i := range steps {
		y := evolveFirstYear + i
		deltaPath := filepath.Join(dir, fmt.Sprintf("d%d.snapd", y+1))
		out, _, err := r.ps.runTool("timeline-delta", r.bins.flatnet, "timeline", "delta", "-base", snapOf(y), "-o", deltaPath)
		if err != nil {
			return "", nil, err
		}
		if steps[i].result = firstLineWith(out, "result "); steps[i].result == "" {
			return "", nil, fmt.Errorf("timeline delta for %d printed no result hash", y+1)
		}
		if steps[i].delta, err = os.ReadFile(deltaPath); err != nil {
			return "", nil, err
		}
		if i == len(steps)-1 {
			break // nothing is derived from the last year
		}
		if _, _, err := r.ps.runTool("timeline-apply", r.bins.flatnet, "timeline", "apply",
			"-base", snapOf(y), "-delta", deltaPath, "-o", snapOf(y+1)); err != nil {
			return "", nil, err
		}
	}
	return snapOf(evolveFirstYear), steps, nil
}

// evolveRead runs the hot read loop beside a writer that walks the daemon
// along the timeline, pausing evolveEvery between POSTs to /v1/evolve; when
// the deltas run out the daemon is restarted on the base year and walks
// again.
func (r *run) evolveRead() error {
	universe, err := r.universe(r.cfg.evolveScale, evolveFirstYear)
	if err != nil {
		return err
	}
	var steps []evolveStep
	start := func(snap string) (*daemon, error) {
		d, err := r.startDaemon("flatnetd", "-snapshot", snap, "-year", fmt.Sprint(evolveFirstYear))
		if err != nil {
			return nil, err
		}
		_, err = httpGet(fmt.Sprintf("%s/v1/reach?as=%d", d.base, universe[0]))
		return d, err
	}
	sys, err := r.setUp(func(rep int) (*system, error) {
		snap, st, err := r.buildTimeline(filepath.Join(r.ps.tmp, fmt.Sprintf("timeline-%d", rep)))
		if err != nil {
			return nil, err
		}
		steps = st
		d, err := start(snap)
		if err != nil {
			return nil, err
		}
		return &system{daemons: []*daemon{d}, snap: snap}, nil
	})
	if err != nil {
		return err
	}
	set := hotSet(universe, hotSetSize)
	warm := hotKeys(set)
	reqs := hotRequests(r.cfg.seed, set, hotListLen)

	var reads loopResult
	var evolves []time.Duration
	total := daemonStats{Cluster: &clusterStats{}}
	minWalks := 2
	if r.cfg.trace || r.cfg.smoke {
		minWalks = 1
	}
	walkLen := time.Duration(evolveSteps+1) * evolveEvery
	for walk := 1; walk <= minWalks || reads.Elapsed+walkLen/2 < r.cfg.window(); walk++ {
		if walk > 1 {
			sys.stop(r, false)
			d, err := start(sys.snap)
			if err != nil {
				return err
			}
			sys.daemons = []*daemon{d}
		}
		c := newClient(sys.base(), r.cfg.clients)
		r.recordLoop(closedLoop(c, fmt.Sprintf("walk-%d-warm-up", walk), warm, 1, 0))
		before, err := scrapeStats(sys.base())
		if err != nil {
			return err
		}
		// Client B, the writer, has one connection of its own; the readers
		// keep the rest. Closing stop ends the readers' loop.
		stop := make(chan struct{})
		writerDone := make(chan error, 1)
		go func() {
			defer close(stop)
			took, err := walkTimeline(c, sys.base(), steps)
			evolves = append(evolves, took...)
			writerDone <- err
		}()
		readers := r.cfg.clients - 1
		if readers < 1 {
			readers = 1
		}
		lr := closedLoopUntil(c, fmt.Sprintf("walk-%d-reads", walk), reqs, readers, stop)
		werr := <-writerDone
		r.recordLoop(lr)
		attempted, failed := len(steps), 0
		if werr != nil {
			failed = attempted
			r.res.fail("%v", werr)
		}
		r.res.phase(fmt.Sprintf("walk-%d-evolves", walk), attempted, failed, lr.Elapsed)
		after, err := scrapeStats(sys.base())
		if err != nil {
			return err
		}
		d := after.minus(before)
		total = total.combine(d, +1)
		if int(d.Evolves) != len(steps) && werr == nil {
			r.res.fail("walk %d: daemon counted %d evolves, want %d", walk, d.Evolves, len(steps))
		}
		reads.Lat = append(reads.Lat, lr.Lat...)
		for _, e := range lr.End {
			reads.End = append(reads.End, reads.Elapsed+e) // the walks laid end to end
		}
		reads.Attempted += lr.Attempted
		reads.Failed += lr.Failed
		reads.Elapsed += lr.Elapsed
		c.close()
		if werr != nil {
			break
		}
	}
	r.setStats(total)
	if len(reads.Lat) == 0 || len(evolves) == 0 {
		return fmt.Errorf("evolve-read completed %d reads and %d evolves", len(reads.Lat), len(evolves))
	}
	r.latencyMetrics(reads)
	r.res.set("evolve_ms", ms(quietLow(evolves)), len(evolves), "lower quartile")
	sys.stop(r, true)
	r.setRSS()
	if r.cfg.trace {
		return r.traceEvolve(sys.snap, steps)
	}
	return nil
}

// walkTimeline is evolve-read's writer: it POSTs each delta in turn, a pause
// before each and one after the last (so the readers re-warm the last world
// too), checks that the daemon landed on the world the delta recorded, and
// returns how long each evolve took. It marks the swaps on the readers'
// client, whose remembered bodies stop being valid at each one.
func walkTimeline(readers *client, base string, steps []evolveStep) ([]time.Duration, error) {
	var took []time.Duration
	for i, st := range steps {
		time.Sleep(evolveEvery)
		readers.swapEdge()
		t0 := time.Now()
		body, err := postBytes(base+"/v1/evolve", st.delta)
		d := time.Since(t0)
		readers.swapEdge()
		from := evolveFirstYear + i
		if err != nil {
			return took, fmt.Errorf("evolve %d→%d: %w", from, from+1, err)
		}
		var resp struct {
			ToWorld string `json:"to_world"`
		}
		if err := json.Unmarshal(body, &resp); err != nil || resp.ToWorld != st.result {
			return took, fmt.Errorf("evolve %d→%d: daemon reports world %q, the delta recorded %q", from, from+1, resp.ToWorld, st.result)
		}
		took = append(took, d)
	}
	time.Sleep(evolveEvery)
	return took, nil
}

func postBytes(url string, body []byte) ([]byte, error) {
	resp, err := plainHTTP.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: status %d: %.200s", url, resp.StatusCode, out)
	}
	return out, nil
}
