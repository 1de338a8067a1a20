#!/bin/sh
# check.sh — the local quality gate: format, vet, (optionally) staticcheck,
# build, full tests (the root package's compares every deterministic
# table of the evaluation with eval_output.txt), the same tests under the
# race detector, every Go benchmark once, the benchmark's smoke test, two
# end-to-end CLI smokes, the coverage ratchet, the size ledger
# (counts.sh) and the docs ceiling. CI and contributors run exactly this.
#
# staticcheck and govulncheck run when their binaries are on PATH (CI
# installs them; locally `go install honnef.co/go/tools/cmd/staticcheck@latest`
# and `go install golang.org/x/vuln/cmd/govulncheck@latest`); each is
# skipped, loudly, when absent so the gate works in minimal containers.
set -eu
cd "$(dirname "$0")/.."

# Everything the gate writes lives here and goes with it, pass or fail.
tmp=$(mktemp -d /tmp/check.XXXXXX)
trap 'rm -rf "$tmp"' EXIT

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi
echo "==> go vet"
go vet ./...
if command -v staticcheck >/dev/null 2>&1; then
    echo "==> staticcheck"
    staticcheck ./...
else
    echo "==> staticcheck (skipped: not installed)"
fi
if command -v govulncheck >/dev/null 2>&1; then
    echo "==> govulncheck"
    govulncheck ./...
else
    echo "==> govulncheck (skipped: not installed)"
fi
echo "==> go build"
go build ./...
echo "==> go test"
go test -coverprofile="$tmp/coverage.out" ./...
echo "==> go test -race"
# The whole tree, not a hand-kept list: a package that grows a goroutine
# is covered the day it does. What the race detector is here to check:
# the wall-clock runtime (livenet's event loops, UDP links, and scrape
# endpoints) and everything written from engine goroutines and read by
# scrape/verdict endpoints (metrics, trace, health); independent
# Sims evaluated concurrently by the parallel sweep runner, where hidden
# shared state between Sims or strategy instances is a race, not just a
# determinism bug; the controller's lock discipline under a wall-clock
# ticker; citysim's shard barrier and its read-only-during-phases
# tx-indexes; and the gateway fleet, HTTP backend, and drain poller
# running in one process.
go test -race ./...
echo "==> go test -bench, one iteration each"
# Every Go benchmark runs once, so one that panics or fails is caught
# the day it breaks, not the day someone next measures with it.
go test -run '^$' -bench . -benchtime 1x ./...
echo "==> bench smoke"
# bench/ is a nested module the root's ./... does not see; its smoke
# test runs every BENCHMARK.json workload at toy scale.
(cd bench && go test ./...)
echo "==> meshsim -control smoke"
# End-to-end: the simulator reconciles toward a real desired-state
# document and must report convergence — guards the CLI wiring (flag,
# state loading, controller attach) that unit tests cannot see.
cat > "$tmp/control_state.json" <<'EOF'
{
  "version": 1,
  "defaults": {"hello_period": "2m0s"}
}
EOF
# grep without -q drains meshsim's stdout to EOF — -q would exit at the
# first match and kill the still-printing simulator with SIGPIPE.
if ! go run ./cmd/meshsim -n 4 -duration 12m -control "$tmp/control_state.json" | grep "controller: converged" >/dev/null; then
    echo "meshsim -control did not converge on the desired state" >&2
    exit 1
fi
echo "==> meshload ingest smoke"
# End-to-end ingest: a pipelined two-gateway fleet with WAL spools, a
# mid-run crash/restart, and overlapping delivery must land every
# reading exactly once — zero lost, zero double-accepted. -check makes
# meshload exit nonzero otherwise. Guards the sharded-dedup + group-
# commit + handover composition under real HTTP, which unit tests only
# cover piecewise.
mkdir "$tmp/meshload"
if ! go run ./cmd/meshload -readings 3000 -origins 32 -gateways 2 -shards 2 \
    -pipeline 2 -gc 2ms -rtt 1ms -overlap 0.2 -crash -spool "$tmp/meshload" -check; then
    echo "meshload smoke: delivery was not exactly-once" >&2
    exit 1
fi
echo "==> coverage ratchet"
# The ratchet: total statement coverage may not drop more than 1 point
# below scripts/coverage_floor.txt (its # line says why the floor last
# moved). Raise the floor when coverage grows.
total=$(go tool cover -func="$tmp/coverage.out" | awk '/^total:/ {sub(/%/, "", $NF); print $NF}')
floor=$(grep -v '^#' scripts/coverage_floor.txt)
echo "    total ${total}% (floor ${floor}%, tolerance 1.0)"
if awk -v t="$total" -v f="$floor" 'BEGIN { exit !(t < f - 1.0) }'; then
    echo "coverage ${total}% fell more than 1 point below the ${floor}% floor" >&2
    echo "fix the regression, or lower scripts/coverage_floor.txt with justification" >&2
    exit 1
fi
if awk -v t="$total" -v f="$floor" 'BEGIN { exit !(t > f + 1.0) }'; then
    echo "    coverage grew; consider raising scripts/coverage_floor.txt to ${total}"
fi
echo "==> counts"
# The size ledger a code-diet PR quotes in CHANGES.md, before and after.
./scripts/counts.sh >"$tmp/counts.txt"
cat "$tmp/counts.txt"
echo "==> docs ceiling"
# The docs ratchet: the KB of README, DESIGN, EXPERIMENTS and CHANGES, as
# counts.sh prints them, may not exceed scripts/docs_ceiling.txt. A change
# may lower the ceiling, never raise it.
docs=$(sed -n 's/^docs KB.*: *//p' "$tmp/counts.txt")
ceiling=$(grep -v '^#' scripts/docs_ceiling.txt)
echo "    docs ${docs} KB (ceiling ${ceiling} KB)"
if awk -v d="$docs" -v c="$ceiling" 'BEGIN { exit !(d > c) }'; then
    echo "docs ${docs} KB exceed the ${ceiling} KB ceiling in scripts/docs_ceiling.txt" >&2
    echo "trim the docs; the ceiling may fall, never rise" >&2
    exit 1
fi
echo "OK"
