#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it from the checkout
# root. Every file the build writes (Go build cache, temporary files, the
# binary) stays under .bench_build/, so a run reads and writes nothing
# outside the checkout. Arguments are passed to the benchmark unchanged:
#
#   bash bench/run.sh --workload city_telemetry --seed 1 --seconds 10 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local

(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
