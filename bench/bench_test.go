package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 0.50}, {19, 0.50}, {39, 0.50}, {40, 0.75}, {99, 0.75}, {100, 0.90}, {199, 0.90}, {200, 0.95},
		{999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {100000, 0.9999},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
		if p := tailPercentile(tc.n); p > 0.5 && beyond(tc.n, p) < 10 {
			t.Errorf("n=%d: p%g has only %d samples beyond it", tc.n, p*100, beyond(tc.n, p))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]time.Duration, 100)
	for i := range s {
		s[i] = time.Duration(i + 1)
	}
	for _, tc := range []struct {
		p    float64
		want time.Duration
	}{{0.50, 50}, {0.99, 99}, {1.0, 100}, {0.001, 1}} {
		if got := percentile(s, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %g) = %d, want %d", tc.p, got, tc.want)
		}
	}
	if got := median([]time.Duration{4, 2}); got != 3 {
		t.Errorf("median of two = %d, want their mean 3", got)
	}
	if got := median([]time.Duration{9, 1, 5}); got != 5 {
		t.Errorf("median of three = %d, want 5", got)
	}
}

// The quiet-side estimators must ignore a disturbed majority and follow a
// change that slows every repetition.
func TestQuietEstimators(t *testing.T) {
	calm := []time.Duration{100, 101, 99, 100}
	half := []time.Duration{100, 101, 180, 170} // a neighbour slowed two of four passes
	if a, b := quietLow(calm), quietLow(half); b > a*102/100 {
		t.Errorf("quietLow moved from %v to %v when half the repetitions were disturbed", a, b)
	}
	if a, b := quietLow(calm), quietLow([]time.Duration{120, 121, 119, 120}); b < a*115/100 {
		t.Errorf("quietLow read %v then %v for repetitions that all got 20%% slower", a, b)
	}

	// A closed loop of 8 blocks: 1 ms requests, except that blocks 2..6 were
	// stalled to 4 ms requests. The quiet quarter is two of the clean blocks.
	var lr loopResult
	var now time.Duration
	for b := 0; b < 8; b++ {
		lat := time.Millisecond
		if b >= 2 && b <= 6 {
			lat = 4 * time.Millisecond
		}
		for end := time.Duration(b+1) * blockLen; now+lat < end; {
			now += lat
			lr.Lat, lr.End = append(lr.Lat, lat), append(lr.End, now)
		}
		now = time.Duration(b+1) * blockLen
	}
	lr.Elapsed = now
	quiet, kept := lr.quietBlocks()
	if kept != 2 || len(quiet) != 2*(int(blockLen/time.Millisecond)-1) || quiet[len(quiet)-1] != time.Millisecond {
		t.Errorf("quietBlocks kept %d blocks, %d requests, slowest %v; want 2 blocks of clean 1 ms requests", kept, len(quiet), quiet[len(quiet)-1])
	}
	short := loopResult{Elapsed: 3 * blockLen, Lat: []time.Duration{1}, End: []time.Duration{1}}
	if _, kept := short.quietBlocks(); kept != 0 {
		t.Errorf("a phase of three blocks has no quiet quarter, got %d blocks", kept)
	}
}

func TestExperimentTimesAndQuietSum(t *testing.T) {
	out := []byte("# mapped snapshot in 1ms\n== fig2 ==\nrows\n-- fig2 done in 623ms\n-- fig7 done in 5.539s\n-- appB done in 170ms\n")
	want := map[string]time.Duration{"fig2": 623 * time.Millisecond, "fig7": 5539 * time.Millisecond, "appB": 170 * time.Millisecond}
	if got := experimentTimes(out); !reflect.DeepEqual(got, want) {
		t.Errorf("experimentTimes = %v, want %v", got, want)
	}
	// Three repetitions of two slots; a burst hit slot 0 once and slot 1 once.
	slots := [][]time.Duration{{100, 180, 100}, {40, 40, 90}}
	if got := quietSum(slots); got != 140 {
		t.Errorf("quietSum = %v, want 140 (each slot's quiet repetitions)", got)
	}
}

func TestPlacement(t *testing.T) {
	s := oneCPU(0)
	s[1] |= 1 << 3 // CPU 67
	if got := s.list(); !reflect.DeepEqual(got, []int{0, 67}) {
		t.Errorf("cpuSet.list() = %v, want [0 67]", got)
	}
	t.Setenv(placementEnv, "2,5,7")
	if pl := findPlacement(); !pl.split || pl.cpu != 7 || !reflect.DeepEqual(pl.all.list(), []int{2, 5, 7}) {
		t.Errorf("placement from %s=2,5,7: %+v", placementEnv, pl)
	}
	t.Setenv(placementEnv, "4")
	if pl := findPlacement(); pl.split {
		t.Errorf("one CPU cannot be split: %+v", pl)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %g %g %g, want 1 2 4", q1, q2, q3)
	}
}

// The coordinated-omission check: a server that stalls once must lengthen
// the latency of every request that was due during the stall, because the
// open loop times each request from its due time, not from its send time.
func TestOpenLoopMeasuresFromDueTime(t *testing.T) {
	const stall = 200 * time.Millisecond
	var served atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 10 {
			time.Sleep(stall)
		}
		fmt.Fprintln(w, r.URL.Path)
	}))
	defer ts.Close()
	reqs := make([]request, 60)
	for i := range reqs {
		reqs[i] = request{ID: i, Method: http.MethodGet, Path: fmt.Sprintf("/r%d", i)}
	}
	c := newClient(ts.URL, 1)
	defer c.close()
	res := openLoop(c, "stall", reqs, 100, 600*time.Millisecond, 1) // one every 10 ms, one connection
	if res.Failed != 0 || res.Attempted != len(reqs) {
		t.Fatalf("attempted %d failed %d: %v", res.Attempted, res.Failed, res.FirstErr)
	}
	// ≈20 requests fall due inside the 200 ms stall. Timed from send, only
	// the stalled request itself would be slow.
	slow := 0
	for _, l := range res.Lat {
		if l > stall/4 {
			slow++
		}
	}
	if slow < 10 {
		t.Errorf("%d requests saw the stall, want at least 10: latencies are not measured from the due time", slow)
	}
	if len(res.Late) == 0 {
		t.Error("no generator-lateness samples from the idle stretches")
	}
}

func TestClosedLoopPlaysListOnce(t *testing.T) {
	var served atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		fmt.Fprintln(w, r.URL.Path)
	}))
	defer ts.Close()
	reqs := hotKeys([]uint32{1, 2, 3})
	c := newClient(ts.URL, 2)
	defer c.close()
	res := closedLoop(c, "once", reqs, 2, 0)
	if res.Attempted != len(reqs) || res.Failed != 0 || int(served.Load()) != len(reqs) {
		t.Errorf("attempted %d failed %d served %d, want %d 0 %d", res.Attempted, res.Failed, served.Load(), len(reqs), len(reqs))
	}
}

// A repeated request must return the bytes first seen for it — except
// across an evolve, where the world legitimately changed.
func TestClientFlagsChangedBody(t *testing.T) {
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "answer %d\n", n.Add(1)/3) // the third answer differs from the first two
	}))
	defer ts.Close()
	c := newClient(ts.URL, 1)
	defer c.close()
	rq := request{Method: http.MethodGet, Path: "/v1/reach?as=1"}
	for i := 0; i < 2; i++ {
		if _, err := c.do(&rq); err != nil {
			t.Fatalf("answer %d: %v", i+1, err)
		}
	}
	if _, err := c.do(&rq); err == nil {
		t.Error("a changed body for the same request was accepted")
	}
	c.swapEdge()
	c.swapEdge()
	if _, err := c.do(&rq); err != nil {
		t.Errorf("after an evolve the new body must be accepted: %v", err)
	}
}

func TestRequestListsComeFromTheSeed(t *testing.T) {
	universe := make([]uint32, 5000)
	for i := range universe {
		universe[i] = uint32(100 + 3*i)
	}
	lists := func(seed int64) []any {
		return []any{
			coldRequests(seed, universe, 500),
			hotRequests(seed, hotSet(universe, 256), 500),
			wideCycles(seed, universe, 2, 1024),
		}
	}
	a, again, b := lists(7), lists(7), lists(8)
	names := []string{"coldRequests", "hotRequests", "wideCycles"}
	for i := range a {
		if !reflect.DeepEqual(a[i], again[i]) {
			t.Errorf("%s: the same seed gave two different lists", names[i])
		}
		if reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("%s: seeds 7 and 8 gave the same list", names[i])
		}
	}
	// The mix is what the README says it is.
	reliance := 0
	for _, rq := range coldRequests(7, universe, 10000) {
		if rq.Op == "reliance" {
			reliance++
		}
	}
	if reliance < 1800 || reliance > 2200 {
		t.Errorf("%d of 10000 point requests are /v1/reliance, want ≈20 %%", reliance)
	}
	if n := len(hotKeys(hotSet(universe, 256))); n != 1024 {
		t.Errorf("hot working set has %d keys, want 1024", n)
	}
	// Every wide request of a run is distinct, so none can be a cache hit.
	seen := map[string]bool{}
	for _, cyc := range wideCycles(7, universe, 4, 1024) {
		if len(cyc) != 11 {
			t.Fatalf("a wide cycle has %d requests, want 11", len(cyc))
		}
		for _, rq := range cyc {
			k := rq.Path + string(rq.Body)
			if seen[k] {
				t.Errorf("wide request repeats: %s", rq.Path)
			}
			seen[k] = true
		}
	}
}

func TestProbeSetHas64Queries(t *testing.T) {
	universe := []uint32{}
	for i := uint32(1); i <= 40000; i++ {
		universe = append(universe, i)
	}
	reqs := probeRequests(universe)
	if len(reqs) != 64 {
		t.Fatalf("probe set has %d queries, want 64", len(reqs))
	}
	if !reflect.DeepEqual(reqs, probeRequests(universe)) {
		t.Error("probe set is not fixed")
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	outer := map[int]time.Duration{1: 100, 2: 50, 3: 70}
	inner := map[int]time.Duration{1: 60, 2: 80, 4: 10} // id 2: the deeper replay ran slower
	got := map[time.Duration]int{}
	for _, d := range selfTimes(outer, inner) {
		got[d]++
	}
	if len(got) != 2 || got[40] != 1 || got[-30] != 1 {
		t.Errorf("selfTimes = %v, want {40, -30}: ids in both layers only, negatives kept", got)
	}
	rec := newRecorder()
	parent := rec.reserve()
	t0 := time.Now()
	rec.put(rec.reserve(), "serve", 9, parent, t0.Add(time.Millisecond), t0.Add(3*time.Millisecond))
	rec.put(parent, "net", 9, 0, t0, t0.Add(5*time.Millisecond))
	self := selfTimes(rec.byID("net"), rec.byID("serve"))
	if len(self) != 1 || self[0] != 3*time.Millisecond {
		t.Errorf("net self time = %v, want [3ms]", self)
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := rec.writeFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var first span
	if err := json.Unmarshal(raw[:bytes.IndexByte(raw, '\n')], &first); err != nil || first.Name != "serve" || first.Parent != parent {
		t.Errorf("span file's first line = %s (%v)", raw, err)
	}
}

func TestStatsDelta(t *testing.T) {
	before, err := parseStats([]byte(`{"cache_hits":10,"cache_misses":5,"computations":5,"coalesced":1,"deadlines_exceeded":0,"shed":0,"evolves":0,"collapse_ratio":1.1,"world":"w"}`))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseStats([]byte(`{"cache_hits":110,"cache_misses":5,"computations":5,"coalesced":4,"deadlines_exceeded":2,"shed":1,"evolves":3,"collapse_ratio":1.1,"world":"w",
		"cluster":{"retries":1,"hedges":12,"remote_shards":124,"local_shards":2,"wire_bytes":4096,"wire_multi_batches":7,"workers":[]}}`))
	if err != nil {
		t.Fatal(err)
	}
	d := after.minus(before)
	if d.CacheHits != 100 || d.CacheMisses != 0 || d.Coalesced != 3 || d.Deadlines != 2 || d.Shed != 1 || d.Evolves != 3 {
		t.Errorf("delta = %+v", d)
	}
	if d.hitRatio() != 1 {
		t.Errorf("window hit ratio = %g, want 1 (100 hits, 0 misses)", d.hitRatio())
	}
	if c := d.Cluster; c.Hedges != 12 || c.RemoteShards != 124 || c.MultiBatches != 7 || c.WireBytes != 4096 {
		t.Errorf("cluster delta = %+v (a daemon without workers reports no cluster block: zero base)", c)
	}
	if sum := d.combine(d, +1); sum.CacheHits != 200 || sum.Cluster.Hedges != 24 {
		t.Errorf("sum of two windows = %+v / %+v", sum, sum.Cluster)
	}
}

func TestStableOutputStripsOnlyTimings(t *testing.T) {
	in := "# mapped snapshot s.snap: 2020 (69488 ASes) in 1ms\n\n== table1 — t ==\n#    2015 network   reach\nrow 1\n-- table1 done in 585ms\n\n== fig2 — f ==\nrow 2\n-- fig2 done in 1.2s\n"
	want := "\n== table1 — t ==\n#    2015 network   reach\nrow 1\n\n== fig2 — f ==\nrow 2\n"
	if got := string(stableOutput([]byte(in))); got != want {
		t.Errorf("stableOutput =\n%q\nwant\n%q", got, want)
	}
}

func TestParseUniverse(t *testing.T) {
	u, err := parseUniverse([]byte("# header\n3356|174|0\n174|15169|-1\n15169|7|-1\n"))
	if err != nil || !reflect.DeepEqual(u, []uint32{7, 174, 3356, 15169}) {
		t.Errorf("parseUniverse = %v, %v", u, err)
	}
	if _, err := parseUniverse([]byte("3356 174\n")); err == nil {
		t.Error("a malformed line was accepted")
	}
}

func series10(med, spread float64) *series {
	s := &series{}
	for i := 0; i < 10; i++ {
		s.Values = append(s.Values, med*(1+spread*(float64(i)-4.5)/4.5))
	}
	s.Q1, s.Median, s.Q3 = quartiles(s.Values)
	s.Min, s.Max = s.Values[0], s.Values[9]
	return s
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "latency_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "throughput_rps", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		name         string
		def          metricDef
		base, change *series
		want         string
	}{
		{"identical", lower, series10(100, 0.02), series10(100, 0.02), "same"},
		{"within bound", lower, series10(100, 0.02), series10(107, 0.02), "same"},
		{"slower than bound", lower, series10(100, 0.02), series10(115, 0.02), "worse"},
		{"faster than noise", lower, series10(100, 0.02), series10(90, 0.02), "better"},
		{"throughput drop", higher, series10(1000, 0.02), series10(850, 0.02), "worse"},
		{"throughput gain", higher, series10(1000, 0.02), series10(1200, 0.02), "better"},
		{"too noisy to tell", lower, series10(100, 0.30), series10(104, 0.30), "unresolved"},
		{"noisy but every run wins", lower, series10(100, 0.15), series10(50, 0.15), "better"},
		{"fail ratio may not rise", metricDef{Name: "fail_ratio", Better: "lower"}, series10(0, 0), &series{Median: 0.01}, "worse"},
	} {
		if got, _ := verdict(tc.def, tc.base, tc.change); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 5; i++ {
			res := &result{Workload: "point-hot", Correct: true, Metrics: map[string]measured{
				"latency_ms":            {Value: p50 * (1 + 0.01*float64(i)), Unit: "ms"},
				"serve.cache_hit_ratio": {Value: 1, Unit: "ratio"}, // per-layer: never compared
			}}
			if err := appendResult(path, res); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a, same, slow := write("a.jsonl", 0.16), write("same.jsonl", 0.161), write("slow.jsonl", 0.24)
	out, err := os.Create(filepath.Join(dir, "table.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if code := compareFiles(out, a, same); code != 0 {
		t.Errorf("two agreeing sets: exit %d, want 0", code)
	}
	if code := compareFiles(out, a, slow); code != 1 {
		t.Errorf("a 50 %% slower set: exit %d, want 1", code)
	}
}

// BENCHMARK.json is what the driver reads; metrics.go is what the bench
// prints. They must name the same things.
func TestBenchmarkJSONMatchesTheBench(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, gatedWorkloads) {
		t.Errorf("BENCHMARK.json workloads %v, the bench gates %v", names, gatedWorkloads)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json  %+v\n bench %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json  %+v\n bench %+v", spec.PerLayer, perLayer)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 || len(spec.PerLayer) > 128 || len(spec.EndToEnd) > 16 {
		t.Errorf("outside the contract's limits: run_seconds %d, %d per-layer, %d end-to-end", spec.RunSeconds, len(spec.PerLayer), len(spec.EndToEnd))
	}
	hasSetup := false
	for _, d := range spec.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in seconds, lower is better")
	}
}

// TestSmoke runs all six workloads end to end, and two of them traced, on
// a 1,390-AS world with one-second windows. It asserts the result schema
// and that nothing failed — never a timing.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real flatnetd processes")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root := findRoot(wd)
	bins, buildS, err := buildProgram(root)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{root: root, seed: 3, seconds: 1, smoke: true, golden: "skip",
		scale: 0.02, evolveScale: 0.02, setupReps: 2, clients: 2,
		out: filepath.Join(t.TempDir(), "results.jsonl")}
	check := func(res *result, want []metricDef) {
		t.Helper()
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d errors=%v", res.Workload, res.Trace, res.Correct, res.Attempted, res.Failed, res.Errors)
		}
		for _, d := range want {
			m, ok := res.Metrics[d.Name]
			switch {
			case !ok:
				t.Errorf("%s trace=%v: metric %s missing", res.Workload, res.Trace, d.Name)
			case m.Unit != d.Unit:
				t.Errorf("%s: metric %s has unit %q, want %q", res.Workload, d.Name, m.Unit, d.Unit)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				t.Errorf("%s: metric %s = %v", res.Workload, d.Name, m.Value)
			case !res.Trace && m.Value <= 0:
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", res.Workload, d.Name, m.Value)
			}
		}
	}
	for _, name := range workloadNames {
		cfg.workload, cfg.trace = name, false
		res := runWorkload(cfg, bins, buildS)
		check(res, endToEnd)
		if fr := res.Metrics["fail_ratio"]; fr.Value != 0 {
			t.Errorf("%s: fail_ratio = %v", name, fr.Value)
		}
		if err := appendResult(cfg.out, res); err != nil {
			t.Fatal(err)
		}
	}
	if runs, err := readResults(cfg.out); err != nil || len(runs) != len(workloadNames) {
		t.Errorf("result file round trip: %d runs, %v", len(runs), err)
	}
	cfg.setupReps = 1
	for _, name := range []string{"point-cold", "wide-cluster"} {
		cfg.workload, cfg.trace = name, true
		res := runWorkload(cfg, bins, buildS)
		check(res, perLayer)
		if _, err := os.Stat(filepath.Join(root, "bench", "out", "trace-"+name+".jsonl")); err != nil {
			t.Errorf("%s: no span file: %v", name, err)
		}
	}
}
