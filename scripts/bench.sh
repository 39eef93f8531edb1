#!/bin/sh
# Sweep-benchmark harness: runs the all-AS reachability benchmarks with
# repetition and writes a benchstat-ready text file, so the performance
# trajectory stays comparable across PRs:
#
#   ./scripts/bench.sh [out-file]          # default bench-<git-sha>.txt
#   benchstat bench-<old>.txt bench-<new>.txt
#
# FLATNET_BENCH_SCALE  (default 0.02138, ~1,485 ASes) benchmark topology size
# FLATNET_BENCH_COUNT  (default 6)     -count repetitions per benchmark
# FLATNET_BENCH_REGEX  (default: the sweep benches) -bench selector
#
# Every benchmark runs at one P (-cpu 1), the GOMAXPROCS every
# bench-baseline.txt row was recorded at; benchguard.sh compares rows at
# the same P count only.
#
# The regex also matches the FullScale variants (scale 1.0 pinned), the
# scale-1.0 world build BenchmarkGenerateFullScale and the
# BenchmarkSnapshotLoad mmap cold start, so the baseline always carries
# true-scale numbers and their ns/AS metrics.
set -eu

cd "$(dirname "$0")/.."

COUNT="${FLATNET_BENCH_COUNT:-6}"
REGEX="${FLATNET_BENCH_REGEX:-BenchmarkReachabilityAll|BenchmarkTable1TopReachability|BenchmarkFig3ReachVsCone|BenchmarkSensitivity|BenchmarkHierarchyFreeReachability|BenchmarkPointReachFullScale|BenchmarkPointRelianceFullScale|BenchmarkFig7LeakCDFs|BenchmarkHijackVsLeak|BenchmarkLeakTrialsBatch|BenchmarkLeakTrialsSmall|BenchmarkLeakSweepPrepassFullScale|BenchmarkEnvColdStart\$|BenchmarkGenerateFullScale|BenchmarkSnapshotLoad|BenchmarkClusterSweep|BenchmarkWireCounts|BenchmarkTimelineSeries|BenchmarkPropagationWithNextHops}"
OUT="${1:-bench-$(git rev-parse --short HEAD 2>/dev/null || echo local).txt}"

go test -run '^$' -bench "$REGEX" -benchmem -cpu 1 -count "$COUNT" . | tee "$OUT"
echo "wrote $OUT"
