#!/bin/sh
# Benchmark regression gate: compares each benchmark's median ns/op in a
# fresh bench.sh run against the checked-in baseline and fails when any
# benchmark slows down beyond the tolerance. Pure sh+awk, so CI needs no
# tooling beyond the Go toolchain that produced the files.
#
#   ./scripts/benchguard.sh bench-baseline.txt bench-new.txt
#
# FLATNET_BENCH_TOLERANCE  (default 30)  allowed regression, percent
#
# Medians (not means) absorb the odd slow repetition on noisy CI runners.
# Rows compare only at the same GOMAXPROCS: the -<N> name suffix the test
# runner adds for N > 1 is kept, so a run at another P count than the
# baseline's (bench.sh passes -cpu 1, the P count of bench-baseline.txt)
# fails, naming each row it cannot compare, instead of comparing a one-P
# baseline with a multi-P run.
set -eu

BASE="${1:?usage: benchguard.sh baseline.txt new.txt}"
NEW="${2:?usage: benchguard.sh baseline.txt new.txt}"
TOL="${FLATNET_BENCH_TOLERANCE:-30}"

[ -f "$BASE" ] || { echo "benchguard: baseline $BASE not found" >&2; exit 1; }
[ -f "$NEW" ] || { echo "benchguard: new results $NEW not found" >&2; exit 1; }

awk -v tol="$TOL" '
function median(v, name, n,    i, j, t, a) {
    for (i = 1; i <= n; i++) a[i] = v[name "," i]
    for (i = 2; i <= n; i++) {
        t = a[i]
        for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
        a[j + 1] = t
    }
    if (n % 2) return a[(n + 1) / 2]
    return (a[n / 2] + a[n / 2 + 1]) / 2
}
$1 ~ /^Benchmark/ && $4 == "ns/op" {
    name = $1
    if (NR == FNR) { bn[name]++; bv[name "," bn[name]] = $3 }
    else           { nn[name]++; nv[name "," nn[name]] = $3 }
    # The headline benchmarks also report a scale-normalized ns/AS metric;
    # track it with the same tolerance so per-AS cost stays flat even when
    # the benchmark topology size changes between baselines. allocs/op gets
    # the same treatment: the hot paths are designed around zero or fixed
    # allocation counts, so growth there is a real structural regression.
    for (i = 5; i <= NF; i++) {
        if ($i == "ns/AS") {
            if (NR == FNR) { ban[name]++; bav[name "," ban[name]] = $(i-1) }
            else           { nan[name]++; nav[name "," nan[name]] = $(i-1) }
        }
        if ($i == "allocs/op") {
            if (NR == FNR) { bln[name]++; blv[name "," bln[name]] = $(i-1) }
            else           { nln[name]++; nlv[name "," nln[name]] = $(i-1) }
        }
        if ($i == "B/op") {
            if (NR == FNR) { bbn[name]++; bbv[name "," bbn[name]] = $(i-1) }
            else           { nbn[name]++; nbv[name "," nbn[name]] = $(i-1) }
        }
    }
}
END {
    fail = 0
    compared = 0
    for (name in nn) {
        if (!(name in bn)) {
            base = name
            if (sub(/-[0-9]+$/, "", base) && base in bn) {
                printf "FAIL: %s ran at another GOMAXPROCS than baseline row %s\n", name, base
                fail = 1
            } else {
                printf "%-55s (new benchmark, no baseline)\n", name
            }
            continue
        }
        bm = median(bv, name, bn[name])
        nm = median(nv, name, nn[name])
        delta = bm > 0 ? 100 * (nm - bm) / bm : 0
        printf "%-55s baseline %14.0f ns/op   new %14.0f ns/op   %+7.1f%%\n", name, bm, nm, delta
        compared++
        if (delta > tol) {
            printf "FAIL: %s regressed %.1f%% (tolerance %d%%)\n", name, delta, tol
            fail = 1
        }
    }
    for (name in nan) {
        if (!(name in ban)) continue
        bm = median(bav, name, ban[name])
        nm = median(nav, name, nan[name])
        delta = bm > 0 ? 100 * (nm - bm) / bm : 0
        printf "%-55s baseline %14.2f ns/AS   new %14.2f ns/AS   %+7.1f%%\n", name, bm, nm, delta
        if (delta > tol) {
            printf "FAIL: %s ns/AS regressed %.1f%% (tolerance %d%%)\n", name, delta, tol
            fail = 1
        }
    }
    # Percent deltas explode near zero (0 → 1 alloc is +inf%), so the
    # alloc gate also requires material absolute growth before failing.
    for (name in nln) {
        if (!(name in bln)) continue
        bm = median(blv, name, bln[name])
        nm = median(nlv, name, nln[name])
        delta = bm > 0 ? 100 * (nm - bm) / bm : (nm > 0 ? 100 : 0)
        printf "%-55s baseline %14.0f allocs/op  new %14.0f allocs/op %+7.1f%%\n", name, bm, nm, delta
        if (delta > tol && nm - bm > 4) {
            printf "FAIL: %s allocs/op regressed %.1f%% (tolerance %d%%)\n", name, delta, tol
            fail = 1
        }
    }
    # B/op gets the same two-part gate as allocs/op: a percent threshold
    # plus an absolute floor (1 KiB) so benchmarks that allocate almost
    # nothing cannot fail on a few bytes of jitter.
    for (name in nbn) {
        if (!(name in bbn)) continue
        bm = median(bbv, name, bbn[name])
        nm = median(nbv, name, nbn[name])
        delta = bm > 0 ? 100 * (nm - bm) / bm : (nm > 0 ? 100 : 0)
        printf "%-55s baseline %14.0f B/op       new %14.0f B/op      %+7.1f%%\n", name, bm, nm, delta
        if (delta > tol && nm - bm > 1024) {
            printf "FAIL: %s B/op regressed %.1f%% (tolerance %d%%)\n", name, delta, tol
            fail = 1
        }
    }
    for (name in bn) if (!(name in nn)) {
        printf "FAIL: benchmark %s present in baseline but missing from new run\n", name
        fail = 1
    }
    if (compared == 0) {
        print "FAIL: no common benchmarks to compare"
        fail = 1
    }
    exit fail
}
' "$BASE" "$NEW"
