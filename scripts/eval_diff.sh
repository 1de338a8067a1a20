#!/bin/sh
# eval_diff.sh — the fence code-diet PRs rest on: every deterministic cell,
# digest and note `cmd/meshbench` prints must match the committed
# eval_output.txt byte for byte.
#
# Left out, because their tables are mostly wall-clock columns and they
# take a minute: E15 and E17 (E15's digests are asserted equal across
# shard counts by the experiment itself, and pinned by bench/). X7 is in:
# every cell of it is deterministic, and its chaos-chain and many-reader
# sections run the netsim and routing code a diet PR edits. Masked on
# both sides: the "(… completed in … wall time)" lines and E14's
# heap-allocs column, which counts runtime mallocs and moves by a few
# from run to run.
set -eu
cd "$(dirname "$0")/.."

skip='E15|E17'
ids=$(go run ./cmd/meshbench -list | awk '{print $1}' | grep -Ev "^($skip)\$" | paste -sd, -)

deterministic() {
    awk -v skip="^($skip)\$" '
        /^== [A-Z0-9]+: / { id = $2; sub(/:$/, "", id) }
        id ~ skip { next }
        /^\(.* completed in .* wall time\)$/ { next }
        id == "E14" && ($1 == "off" || $1 == "spans" || $1 == "spans+health") { $4 = "N" }
        { print }
    ' "$1"
}

tmp=$(mktemp -d /tmp/eval_diff.XXXXXX)
trap 'rm -rf "$tmp"' EXIT
go run ./cmd/meshbench -exp "$ids" > "$tmp/run.txt"
deterministic eval_output.txt > "$tmp/want.txt"
deterministic "$tmp/run.txt" > "$tmp/got.txt"
if ! diff -u "$tmp/want.txt" "$tmp/got.txt"; then
    echo "eval_diff: deterministic cells differ from the committed eval_output.txt" >&2
    echo "a change that means to move them regenerates the file: go run ./cmd/meshbench > eval_output.txt" >&2
    exit 1
fi
echo "    $(echo "$ids" | tr ',' '\n' | wc -l | tr -d ' ') experiments match eval_output.txt"
