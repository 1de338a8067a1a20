#!/usr/bin/env bash
# pairs.sh — the bench ledger's pair protocol. It exports <rev> with
# `git archive` into a temporary directory and runs the unchanged
# `bench/run.sh` there and in this checkout, alternating which side runs
# first, for N pairs per workload. It then prints, per end-to-end metric,
# both medians, the base's interquartile range, the median change/base
# ratio with its range, and how many pairs the change won:
#
#   bash scripts/pairs.sh --against <rev> --pairs 10 [--workload mesh_secure] [--seed 1] [--seconds 10]
#
# The verdict column is the sign test: "better" when the change wins at
# least 9 pairs in 10, "WORSE" when it wins at most 1 in 10 (ties aside),
# "same" when every pair ties, else "noise". A claimed gain also needs its
# median gap beyond the base's IQR ("gap>IQR"). Without --workload every
# workload in BENCHMARK.json runs. Raw values go to stderr as they land.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
against="" pairs=10 workload="" seed=1 seconds=10
while [ $# -gt 0 ]; do
    case "$1" in
    --against) against="$2"; shift 2 ;;
    --pairs) pairs="$2"; shift 2 ;;
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    *) echo "usage: $0 --against <rev> --pairs N [--workload W] [--seed S] [--seconds T]" >&2; exit 2 ;;
    esac
done
[ -n "$against" ] || { echo "pairs.sh: --against <rev> is required" >&2; exit 2; }

spec="$root/BENCHMARK.json"
if [ -z "$workload" ]; then
    workload="$(awk '/"workloads"/ {on=1} on && /"name":/ {gsub(/[",]/, "", $2); printf "%s ", $2} on && /^  \]/ {exit}' "$spec")"
fi

tmp="$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git -C "$root" archive "$against" | tar -x -C "$tmp/base"
rows="$tmp/rows"
: >"$rows"

# run <side> <tree> <workload> <pair>: one bench run; appends
# "workload metric pair side value" rows for the result line's metrics.
run() {
    local line
    line="$(cd "$2" && bash bench/run.sh --workload "$3" --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)" || true
    case "$line" in
    *'"correct":true'*) ;;
    *) echo "pairs.sh: $1 run of $3 (pair $4) was not correct: $line" >&2; exit 1 ;;
    esac
    printf '%s\n' "$line" | grep -o '"[a-z0-9_.]*":{"value":[^,}]*' |
        sed 's/^"\([^"]*\)":{"value":/\1 /' |
        awk -v w="$3" -v p="$4" -v s="$1" '{print w, $1, p, s, $2}' | tee -a "$rows" >&2
}

for w in $workload; do
    for p in $(seq 1 "$pairs"); do
        if [ $((p % 2)) -eq 1 ]; then
            run base "$tmp/base" "$w" "$p"; run change "$root" "$w" "$p"
        else
            run change "$root" "$w" "$p"; run base "$tmp/base" "$w" "$p"
        fi
    done
done

echo "change: working tree of $root; base: $against ($(git -C "$root" rev-parse --short "$against")); $pairs pairs, seed $seed, --seconds $seconds"
awk '
    FNR == NR {
        if ($1 == "\"name\":") { gsub(/[",]/, "", $2); name = $2 }
        if ($1 == "\"better\":") { gsub(/[",]/, "", $2); better[name] = $2 }
        next
    }
    {
        k = $1 " " $2
        if (!(k in seen)) { seen[k] = 1; keys[++nk] = k }
        v[k, $3, $4] = $5
        if ($3 > np[k]) np[k] = $3
    }
    function sortn(a, n,    i, j, t) {
        for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
    }
    function q(a, n, f,    x, lo) { x = 1 + f * (n - 1); lo = int(x); return lo >= n ? a[n] : a[lo] + (x - lo) * (a[lo+1] - a[lo]) }
    BEGIN { printf "%-15s %-24s %12s %12s %10s %8s %15s %9s  %s\n", "workload", "metric", "base", "change", "base IQR", "ratio", "range", "wins", "verdict" }
    END {
        for (i = 1; i <= nk; i++) {
            k = keys[i]; split(k, kw, " "); n = np[k]; hib = better[kw[2]] == "higher"
            wins = ties = 0
            for (p = 1; p <= n; p++) {
                b[p] = v[k, p, "base"]; c[p] = v[k, p, "change"]
                r[p] = b[p] == 0 ? (c[p] == 0 ? 1 : 0) : c[p] / b[p]
                if (c[p] == b[p]) ties++
                else if ((c[p] > b[p]) == hib) wins++
            }
            sortn(b, n); sortn(c, n); sortn(r, n)
            bm = q(b, n, 0.5); cm = q(c, n, 0.5); iqr = q(b, n, 0.75) - q(b, n, 0.25)
            verdict = "noise"
            if (ties == n) verdict = "same"
            else if (wins * 10 >= 9 * n) verdict = "better"
            else if (wins * 10 <= n) verdict = "WORSE"
            gap = cm - bm; if (gap < 0) gap = -gap
            if (verdict == "better" && gap > iqr) verdict = verdict ", gap>IQR"
            printf "%-15s %-24s %12.6g %12.6g %10.3g %7.4fx %7.4f-%-7.4f %4d/%-2d  %s\n", kw[1], kw[2], bm, cm, iqr, q(r, n, 0.5), r[1], r[n], wins, n, verdict
        }
    }
' "$spec" "$rows"
