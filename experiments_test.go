// Package repro's root test is the fence the evaluation rests on: under
// `go test ./...` every experiment in EXPERIMENTS.md's index runs once at
// seed 1, and each deterministic table is compared byte for byte with
// the committed eval_output.txt. Performance is measured by bench/ (see
// BENCHMARK.json), not here.
package repro

import (
	"os"
	"regexp"
	"slices"
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

// publishedTables is evalTables with E14's allocation counts masked.
func publishedTables(t *testing.T) map[string]string {
	t.Helper()
	tables := evalTables(t)
	for id, table := range tables {
		tables[id] = maskAllocs(id, table)
	}
	return tables
}

// evalTables cuts eval_output.txt into one rendered table per experiment
// id, dropping the "(… completed in … wall time)" line that ends each
// section.
func evalTables(t *testing.T) map[string]string {
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
			tables[id] += line
		}
	}
	return tables
}

var (
	docSectionRE = regexp.MustCompile(`^#+ ([EAX][0-9]+) `)
	unitGapRE    = regexp.MustCompile(`([0-9]) +([A-Za-z%])`)
	numericRE    = regexp.MustCompile(`^[<>]?[0-9][0-9.]*[A-Za-z%/]*$`)
)

// TestExperimentsDocMatchesEval holds EXPERIMENTS.md's tables to the run
// they quote. In each E*, A* or X* section, a table row's numeric cells,
// with bold marks stripped and a unit joined to its number, must all be
// fields of one row of that experiment's table in eval_output.txt. E15
// and E17 quote wall-clock columns of another machine and are skipped.
func TestExperimentsDocMatchesEval(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	tables := evalTables(t)
	id, checked := "", 0
	for n, line := range strings.Split(string(doc), "\n") {
		if strings.HasPrefix(line, "#") {
			id = ""
			if m := docSectionRE.FindStringSubmatch(line); m != nil && !wallClockOnly[m[1]] {
				id = m[1]
				if tables[id] == "" {
					t.Errorf("EXPERIMENTS.md:%d: eval_output.txt has no %s table", n+1, id)
				}
			}
			continue
		}
		if id == "" || !strings.HasPrefix(line, "|") || strings.HasPrefix(line, "|---") {
			continue
		}
		var cells []string
		for _, cell := range strings.Split(strings.Trim(line, "| "), "|") {
			cell = unitGapRE.ReplaceAllString(strings.TrimSpace(strings.ReplaceAll(cell, "**", "")), "$1$2")
			if numericRE.MatchString(cell) {
				cells = append(cells, cell)
			}
		}
		if len(cells) == 0 {
			continue
		}
		checked++
		if !inOneRow(tables[id], cells) {
			t.Errorf("EXPERIMENTS.md:%d: %s cells %q are not all in one row of eval_output.txt's table", n+1, id, cells)
		}
	}
	if checked < 40 {
		t.Fatalf("checked only %d rows: the section walk is broken", checked)
	}
}

// inOneRow reports whether every cell is a field of one line of table.
func inOneRow(table string, cells []string) bool {
	for _, line := range strings.Split(table, "\n") {
		fields := strings.Fields(line)
		if !slices.ContainsFunc(cells, func(c string) bool { return !slices.Contains(fields, c) }) {
			return true
		}
	}
	return false
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
