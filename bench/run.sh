#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds the bench binary and hands over
# to it; everything the toolchain writes stays under .bench_build/ in the
# checkout, so a run touches nothing outside it.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/bin/bench" .)
exec "$out/bin/bench" -root "$root" "$@"
