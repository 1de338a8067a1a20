// Package repro's root test is the fence the evaluation rests on: under
// `go test ./...` every experiment in EXPERIMENTS.md's index runs once at
// seed 1, and each deterministic table is compared byte for byte with
// the committed eval_output.txt. Performance is measured by bench/ (see
// BENCHMARK.json), not here.
package repro

import (
	"os"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// wallClockOnly names the two experiments that take a minute at published
// size and whose tables are mostly wall-clock columns: they run at test
// size and are not compared with eval_output.txt.
var wallClockOnly = map[string]bool{"E15": true, "E17": true}

// TestAllExperimentsQuick runs every experiment once. An experiment in
// claims must satisfy its notes' predicate. The 27 other than
// E15 and E17 run at published size and must render their section of
// eval_output.txt exactly; E15's deterministic columns at test size are
// pinned by a golden file; E17's delivery ledger is asserted by the
// experiment itself. A change that means to move a cell regenerates the
// file: go run ./cmd/meshbench > eval_output.txt
func TestAllExperimentsQuick(t *testing.T) {
	published := publishedTables(t)
	for _, spec := range experiments.All() {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			res, err := spec.Run(experiments.Options{Seed: 1, Quick: wallClockOnly[spec.ID]})
			if err != nil {
				t.Fatal(err)
			}
			if claim := claims[spec.ID]; claim != nil {
				if err := claim(res); err != nil {
					t.Errorf("the notes' claim fails: %v", err)
				}
			}
			switch spec.ID {
			case "E15":
				golden, err := os.ReadFile("internal/experiments/testdata/e15_quick.golden")
				if err != nil {
					t.Fatal(err)
				}
				expectTable(t, string(golden), render(t, deterministicE15(res)))
			case "E17":
				if len(res.Rows) == 0 {
					t.Fatal("no rows produced")
				}
			default:
				expectTable(t, published[spec.ID], maskAllocs(spec.ID, render(t, res)))
			}
		})
	}
}

// TestOnlySlowExperimentsReadQuick holds the evaluation to one size: with
// Quick set, each of the 26 experiments other than E15, E17 and X7 still
// renders its published table, which TestAllExperimentsQuick shows is
// what it renders without.
func TestOnlySlowExperimentsReadQuick(t *testing.T) {
	published := publishedTables(t)
	for _, spec := range experiments.All() {
		if wallClockOnly[spec.ID] || spec.ID == "X7" {
			continue
		}
		res, err := spec.Run(experiments.Options{Seed: 1, Quick: true})
		if err != nil {
			t.Fatalf("%s: %v", spec.ID, err)
		}
		expectTable(t, published[spec.ID], maskAllocs(spec.ID, render(t, res)))
	}
}

func render(t *testing.T, res *experiments.Result) string {
	t.Helper()
	var sb strings.Builder
	if _, err := res.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// expectTable fails with the first line at which got departs from want.
func expectTable(t *testing.T, want, got string) {
	t.Helper()
	if got == want {
		return
	}
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; ; i++ {
		if i >= len(w) || i >= len(g) || w[i] != g[i] {
			t.Fatalf("table differs at line %d\nwant: %s\n got: %s\n--- whole table ---\n%s",
				i+1, lineAt(w, i), lineAt(g, i), got)
		}
	}
}

func lineAt(lines []string, i int) string {
	if i >= len(lines) {
		return "(end of table)"
	}
	return lines[i]
}

// publishedTables cuts eval_output.txt into one rendered table per
// experiment id, dropping the "(… completed in … wall time)" line that
// ends each section.
func publishedTables(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile("eval_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	tables := map[string]string{}
	id := ""
	for _, line := range strings.SplitAfter(string(data), "\n") {
		switch {
		case strings.HasPrefix(line, "== "):
			id = strings.TrimSuffix(strings.Fields(line)[1], ":")
		case id != "" && strings.HasPrefix(line, "("+id+" completed in "):
			id = ""
		}
		if id != "" {
			tables[id] += maskAllocs(id, line)
		}
	}
	return tables
}

// maskAllocs blanks E14's heap-allocs column, which counts runtime
// mallocs and moves by a few from run to run; every other table passes
// through unchanged.
func maskAllocs(id, table string) string {
	if id != "E14" {
		return table
	}
	lines := strings.SplitAfter(table, "\n")
	for i, line := range lines {
		if f := strings.Fields(line); len(f) == 6 && (f[0] == "off" || f[0] == "spans" || f[0] == "spans+health") {
			f[3] = "N"
			lines[i] = strings.Join(f, " ") + "\n"
		}
	}
	return strings.Join(lines, "")
}

// deterministicE15 is E15's table without its two wall-clock columns and
// its notes (one quotes the best speedup).
func deterministicE15(res *experiments.Result) *experiments.Result {
	strip := func(row []string) []string {
		var kept []string
		for i, cell := range row {
			if h := res.Header[i]; h != "events/s" && h != "speedup" {
				kept = append(kept, cell)
			}
		}
		return kept
	}
	out := &experiments.Result{ID: res.ID, Title: res.Title, Header: strip(res.Header)}
	for _, row := range res.Rows {
		out.Rows = append(out.Rows, strip(row))
	}
	return out
}
