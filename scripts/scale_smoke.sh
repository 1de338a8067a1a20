#!/bin/sh
# scale_smoke.sh — the CI scale-regression gate: a short E15 city run at
# 10k nodes, fixed seed, serial reference vs 4 shards. The gate fails on
# either of two regressions:
#
#   1. trace divergence — the sharded executor's digest no longer matches
#      the serial reference's (the byte-identical determinism contract in
#      internal/citysim broke), or
#   2. an events/sec floor regression — the sharded executor's throughput
#      advantage over the serial full scan fell below 2.0x (the
#      advantage is algorithmic — cell-bounded neighbor scans instead of
#      O(n) full scans — so it holds even on a single core, where
#      goroutine parallelism contributes nothing).
#
# The run simulates a 10k-node city and takes ~30s of wall, most of it
# the serial baseline — deliberately kept out of the tier-1 `go test`
# suite, which is why the test is gated behind SCALE_SMOKE=1.
set -eu
cd "$(dirname "$0")/.."

echo "==> scale smoke (10k nodes, serial vs 4 shards, seed 1)"
SCALE_SMOKE=1 go test -run TestScaleSmoke -v ./internal/citysim/
echo "OK"
