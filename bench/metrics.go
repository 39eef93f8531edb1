package main

import (
	"math"
	"sort"
	"time"
)

// metricDef is one named metric with its unit, direction and — for the
// gated ones — the share of the baseline median it may worsen by.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what the driver gates: every workload reports every one of
// these with tracing off. latency_ms is the time of the workload's unit of
// work — one request (point-*, evolve-read), one `flatnet run` pass
// (paper-batch), one cycle of eleven wide requests (wide-*) — estimated on
// the quiet side of the run (quietLow, quietBlocks). The bound is the
// widest the contract allows because that is what this shared two-core box
// repeats within (README.md, Repeatability).
var endToEnd = []metricDef{
	{"latency_ms", "ms", "lower", 0.25},
	{"rss_mib", "MiB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// detail metrics are printed, written to the result file and compared by
// -compare under the same bound, but are not on the driver's line: some
// exist only on the workloads that have the operation (the line wants every
// metric from every workload), and the tails and rates do not repeat within
// any bound on this box (README.md, Repeatability).
var detail = []metricDef{
	{"throughput_rps", "1/s", "higher", 0.25},
	{"p99_ms", "ms", "lower", 0.25},
	{"window_p50_ms", "ms", "lower", 0.25},
	{"window_p99_ms", "ms", "lower", 0.25},
	{"run_s", "s", "lower", 0.25},
	{"sweep_ms", "ms", "lower", 0.25},
	{"sweep_tier1_ms", "ms", "lower", 0.25},
	{"leak_ms", "ms", "lower", 0.25},
	{"batch_ms", "ms", "lower", 0.25},
	{"cycle_s", "s", "lower", 0.25},
	{"evolve_ms", "ms", "lower", 0.25},
	{"fail_ratio", "ratio", "lower", 0},
}

// experimentIDs is the paper-batch set: everything `flatnet run all` runs
// except sensitivity (one 11 s serial experiment would hide the rest) and
// timeline (92 s at scale 1.0).
var experimentIDs = []string{"fig2", "table1", "fig3", "fig4", "fig6", "table2",
	"fig7", "fig8", "fig9", "fig10", "appB", "hijack"}

// perLayer is what a -trace 1 run prints: one list for all workloads, zero
// where a layer does no work for the workload.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// read from outside the program: /v1/stats deltas, child stdout
		{"serve.cache_hit_ratio", "ratio", "higher", 0},
		{"serve.computations", "count", "lower", 0},
		{"serve.coalesced", "count", "higher", 0},
		{"serve.deadlines", "count", "lower", 0},
		{"serve.shed", "count", "lower", 0},
		{"cluster.remote_shards", "count", "lower", 0},
		{"cluster.local_shards", "count", "lower", 0},
		{"cluster.retries", "count", "lower", 0},
		{"cluster.hedges", "count", "lower", 0},
		{"cluster.hedge_ratio", "ratio", "lower", 0},
		{"cluster.wire_bytes", "count", "lower", 0},
		{"cluster.multi_batches", "count", "lower", 0},
		{"cluster.join_s", "s", "lower", 0},
		{"snapshot.build_s", "s", "lower", 0},
		{"snapshot.bytes", "count", "lower", 0},
		// the load generator's own validity and the open-loop view
		{"loadgen.universe_s", "s", "lower", 0},
		{"loadgen.late_ms_p99", "ms", "lower", 0},
		{"loadgen.open_p50_ms.lo", "ms", "lower", 0},
		{"loadgen.open_p50_ms.hi", "ms", "lower", 0},
		{"loadgen.open_p99_ms.lo", "ms", "lower", 0},
		{"loadgen.open_p99_ms.hi", "ms", "lower", 0},
		{"loadgen.max_ok_rps", "1/s", "higher", 0},
		{"loadgen.trace_overhead_ratio", "ratio", "lower", 0},
		{"loadgen.layer_sum_ratio", "ratio", "lower", 0},
		// the layered replay, outermost layer first
		{"net.rtt_us", "us", "lower", 0},
		{"net.self_us", "us", "lower", 0},
		{"serve.hit_us", "us", "lower", 0},
		{"serve.miss_self_us", "us", "lower", 0},
		{"serve.sweep_self_ms", "ms", "lower", 0},
		{"serve.evolve_self_ms", "ms", "lower", 0},
		{"core.reach_us", "us", "lower", 0},
		{"core.reach_p99_us", "us", "lower", 0},
		{"core.reach_self_us", "us", "lower", 0},
		{"core.reliance_ms", "ms", "lower", 0},
		{"core.sweep_ms.hierarchy-free", "ms", "lower", 0},
		{"core.sweep_ms.tier1-free", "ms", "lower", 0},
		{"core.sweep_ms.provider-free", "ms", "lower", 0},
		{"core.many_ms", "ms", "lower", 0},
		{"core.new_ms", "ms", "lower", 0},
		{"bgpsim.propagate_us", "us", "lower", 0},
		{"bgpsim.propagate_p99_us", "us", "lower", 0},
		{"bgpsim.batchreach_block_us", "us", "lower", 0},
		{"bgpsim.leak_prepass_ms", "ms", "lower", 0},
		{"bgpsim.leak_trial_us", "us", "lower", 0},
		{"bgpsim.classindex_ms", "ms", "lower", 0},
		{"bgpsim.collapse_ratio", "ratio", "higher", 0},
		{"cluster.pool_sweep_ms", "ms", "lower", 0},
		{"cluster.shard_rtt_ms", "ms", "lower", 0},
		{"cluster.encode_counts_us", "us", "lower", 0},
		{"cluster.decode_counts_us", "us", "lower", 0},
		{"cluster.hash_ms", "ms", "lower", 0},
		{"snapshot.open_ms", "ms", "lower", 0},
		{"topogen.generate_s", "s", "lower", 0},
		{"topogen.apply_delta_ms", "ms", "lower", 0},
	}
	for _, id := range experimentIDs {
		defs = append(defs, metricDef{"experiments." + id + "_ms", "ms", "lower", 0})
	}
	return defs
}()

// findDef looks a metric up by name in the given lists.
func findDef(name string, lists ...[]metricDef) (metricDef, bool) {
	for _, defs := range lists {
		for _, d := range defs {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// boundFor returns the definition -compare judges a metric by; per-layer
// metrics have none.
func boundFor(name string) (metricDef, bool) { return findDef(name, endToEnd, detail) }

// ---- sample statistics ----

func sortedCopy(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// percentile is the nearest-rank percentile of an ascending sample: the
// smallest value with at least p of the sample at or below it.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// beyond is how many of n samples lie strictly above the nearest-rank p-th
// percentile's position.
func beyond(n int, p float64) int { return n - int(math.Ceil(p*float64(n))) }

// tailPercentile is the reporting rule for every timing: the highest of
// the usual percentiles that still has at least ten samples beyond it.
// With fewer than 20 samples none qualifies and the median is all the
// sample supports.
func tailPercentile(n int) float64 {
	for _, p := range []float64{0.9999, 0.999, 0.99, 0.95, 0.90, 0.75} {
		if beyond(n, p) >= 10 {
			return p
		}
	}
	return 0.50
}

// median averages the two middle values of an even sample.
func median(d []time.Duration) time.Duration {
	s := sortedCopy(d)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartile is the q-th quantile (0 ≤ q ≤ 1) of a sample, interpolating
// linearly between the two nearest ranks.
func quartile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	j := int(pos)
	if j >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[j] + (pos-float64(j))*(s[j+1]-s[j])
}

// quietLow is the estimator behind every gated timing: the lower quartile
// of the times of something a run repeats — a set-up, an experiment of a
// pass, a slot of a wide cycle. On this shared host the noise has one sign:
// a neighbour takes the CPU for milliseconds to seconds and everything
// measured meanwhile reads slow, never fast. The mean and the median of the
// repetitions move with how much of the run was disturbed; the lower
// quartile stays put as long as part of the run was left alone, while a
// regression in the program, which slows every repetition, moves it in
// full. quietBlocks is the same idea for a stream of requests.
func quietLow(d []time.Duration) time.Duration {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = float64(x)
	}
	return time.Duration(quartile(v, 0.25))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quartiles matches Python's statistics.quantiles(v, n=4) (the exclusive
// method), which is what the driver computes spreads with.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}
