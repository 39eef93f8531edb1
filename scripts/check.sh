#!/bin/sh
# Repository health check: vet, build, race-enabled tests, and a benchmark
# smoke run. Used before sending changes; CI can call it directly.
#
#   ./scripts/check.sh
#
# FLATNET_BENCH_SCALE (default 0.02138) controls the benchmark topology size.
set -eu

cd "$(dirname "$0")/.."

echo "==> Go line counts (informational; never fails)"
# The size the roadmap's line target is measured in: non-test Go outside
# bench/ and .bench_build/, examples included, with the test lines beside it.
go_lines() {
    find . -name '*.go' "$@" -not -path './bench/*' -not -path './.bench_build/*' -exec cat {} + | wc -l
}
echo "non-test: $(go_lines -not -name '*_test.go')  test: $(go_lines -name '*_test.go')"

echo "==> gofmt"
UNFORMATTED="$(gofmt -l .)"
if [ -n "$UNFORMATTED" ]; then
    echo "gofmt needed on:" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi

echo "==> no env-selected engine switch"
# Engines are chosen by the input (tie-breaking, policies, count vs. DAG),
# never by a FLATNET_* variable read in non-test code.
if grep -rn 'Getenv("FLATNET_' --include='*.go' cmd internal | grep -v _test.go; then
    echo "a FLATNET_* switch is read outside tests" >&2
    exit 1
fi

echo "==> no package only its own tests import"
# A package under internal/ that nothing outside it imports from non-test
# code is dead; it comes back together with its first caller.
for d in internal/*/; do
    grep -rl --include='*.go' --exclude='*_test.go' "\"flatnet/${d%/}\"" cmd internal examples bench | grep -qv "^$d" ||
        { echo "flatnet/${d%/} has no non-test importer outside itself" >&2; exit 1; }
done

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go test -race ./..."
go test -race ./...

echo "==> go test -count 20 (cluster + serve)"
# The dispatch, worker-death and evolve tests order real goroutines and
# loopback HTTP; twenty runs surface a timing-dependent assertion before
# merge.
go test -count 20 ./internal/cluster/ ./internal/serve/

echo "==> snapshot decoder fuzz (10s)"
# Short coverage-guided pass over the snapshot decoder; the seed corpus
# carries a valid snapshot plus known corruption shapes, so even a
# brief run exercises every section parser against hostile input.
# -fuzzminimizetime bounds the minimization of each new input: with the
# default 60 s budget, minimizing one input grown from the large valid
# seed took the rest of the pass (about 3,000 executions, all in the first
# 3 s); bounded, the same 10 s runs tens of thousands.
go test -run '^$' -fuzz 'FuzzSnapshotDecode' -fuzztime 10s -fuzzminimizetime 100x ./internal/snapshot/

echo "==> delta decoder fuzz (5s)"
# The delta codec is fed over the network (POST /v1/evolve), so its
# fail-closed decoder gets its own hostile-input pass.
go test -run '^$' -fuzz 'FuzzDeltaDecode' -fuzztime 5s -fuzzminimizetime 100x ./internal/snapshot/

echo "==> cluster wire decoder fuzz (5s)"
# The binary sweep/leak frames cross the network on every cluster shard;
# the decoders must reject truncation, corruption, bad magic/version, and
# trailing bytes without ever panicking.
go test -run '^$' -fuzz 'FuzzWireDecode' -fuzztime 5s ./internal/cluster/

echo "==> benchmark smoke (1 iteration)"
go test -bench 'BenchmarkLeakSweep|BenchmarkLeakTrialsBatch|BenchmarkLeakTrialsSmall|BenchmarkFig7LeakCDFs|BenchmarkHijackVsLeak|BenchmarkPropagateNoAlloc|BenchmarkPropagationWithNextHops|BenchmarkPropagationSingleOrigin|BenchmarkPointReachFullScale|BenchmarkPointRelianceFullScale|BenchmarkReachabilityAll|BenchmarkTable1TopReachability|BenchmarkEnvColdStart$|BenchmarkSnapshotLoad|BenchmarkTimelineSeries|BenchmarkWireCounts' \
    -benchtime 1x -benchmem -run '^$' .

echo "==> snapshot build/load smoke"
# Freeze a small world (topologies and population models), inspect it, and
# run an experiment from it — the fast cold-start path end to end.
SNAPDIR="$(mktemp -d)"
trap 'rm -rf "$SNAPDIR"' EXIT
go build -o "$SNAPDIR/flatnet" ./cmd/flatnet
"$SNAPDIR/flatnet" snapshot build -scale 0.01425 -o "$SNAPDIR/world.snap"
"$SNAPDIR/flatnet" snapshot info -verify "$SNAPDIR/world.snap"
"$SNAPDIR/flatnet" run -snapshot "$SNAPDIR/world.snap" table1 > /dev/null

echo "==> timeline delta smoke"
# One year frozen, one growth delta derived and applied: the evolved
# snapshot must be byte-identical to building the next year fresh.
"$SNAPDIR/flatnet" timeline build -year 2016 -scale 0.012 -o "$SNAPDIR/y2016.snap" > /dev/null
"$SNAPDIR/flatnet" timeline delta -base "$SNAPDIR/y2016.snap" -o "$SNAPDIR/step.snapd" > /dev/null
"$SNAPDIR/flatnet" snapshot info -verify "$SNAPDIR/step.snapd"
"$SNAPDIR/flatnet" timeline apply -base "$SNAPDIR/y2016.snap" -delta "$SNAPDIR/step.snapd" -o "$SNAPDIR/y2017.snap" > /dev/null
"$SNAPDIR/flatnet" timeline build -year 2017 -scale 0.012 -o "$SNAPDIR/y2017-fresh.snap" > /dev/null
cmp "$SNAPDIR/y2017.snap" "$SNAPDIR/y2017-fresh.snap"
# The series path (grow year by year) and the single-world path (one frozen
# year) must print the same 2017 row.
"$SNAPDIR/flatnet" timeline report -scale 0.012 | grep '^2017 ' > "$SNAPDIR/row-series.txt"
"$SNAPDIR/flatnet" timeline report -snapshot "$SNAPDIR/y2017-fresh.snap" | grep '^2017 ' > "$SNAPDIR/row-snapshot.txt"
diff "$SNAPDIR/row-series.txt" "$SNAPDIR/row-snapshot.txt"

echo "==> all checks passed"
