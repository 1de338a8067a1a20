#!/bin/sh
# counts.sh — the size ledger every code-diet entry in CHANGES.md quotes,
# so a PR reads its before/after instead of recounting by hand. Run it at
# the parent commit and at the change; check.sh prints it as its last step.
set -eu
cd "$(dirname "$0")/.."

# Non-test Go outside the nested bench/ module.
src() { find . -name '*.go' ! -name '*_test.go' ! -path './bench/*'; }
# Entries of a `var <name> = map[string]string{` literal: its tab-quote lines.
entries() { awk -v open="^var $2 = " '$0 ~ open {on=1; next} on && /^}/ {exit} on && /^\t"/ {n++} END {print n+0}' "$1"; }

echo "non-test Go lines outside bench/:   $(src | xargs cat | wc -l | tr -d ' ')"
echo "  non-comment, non-blank:           $(src | xargs cat | grep -v '^[[:space:]]*$' | grep -vc '^[[:space:]]*//')"
echo "packages:                           $(go list ./... | wc -l | tr -d ' ')"
# The guard's own type-checked walk, not a grep: what it counts is what it enforces.
echo "exported Config fields (internal/): $(go test -count=1 -v -run '^TestEveryOptionHasASetter$' . |
    sed -n 's/.*exported Config fields under internal\/: \([0-9]*\).*/\1/p')"
echo "flags (cmd/, examples/):            $(grep -rE 'flag\.(String|Int|Int64|Uint|Bool|Duration|Float64)(Var)?\(' --include='*.go' cmd examples | grep -vc '_test.go:')"
echo "os.Getenv sites outside bench/:     $(find . -name '*.go' ! -path './bench/*' | xargs grep -c 'os\.Getenv(' | awk -F: '{n+=$2} END {print n+0}')"
echo "interfaces (non-test):              $(src | xargs grep -c 'interface {' | awk -F: '{n+=$2} END {print n+0}')"
echo "optionAllowlist entries:            $(entries options_test.go optionAllowlist)"
echo "exportAllowlist entries:            $(entries exports_test.go exportAllowlist)"
echo "docs KB (README, DESIGN, EXPERIMENTS, CHANGES): $(cat README.md DESIGN.md EXPERIMENTS.md CHANGES.md | wc -c | awk '{printf "%.1f", $1/1024}')"
