// Package repro's root test is the fence the evaluation rests on: under
// `go test ./...` every experiment in EXPERIMENTS.md's index runs once at
// seed 1, and each table is compared byte for byte with the committed
// eval_output.txt. Performance is measured by bench/ (see
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

// TestAllExperimentsQuick runs every experiment once at its one size.
// An experiment in claims must satisfy its notes' predicate, and each
// must render its section of eval_output.txt exactly. A change that means
// to move a cell regenerates the file:
// go run ./cmd/meshbench > eval_output.txt
func TestAllExperimentsQuick(t *testing.T) {
	published := evalTables(t)
	for _, spec := range experiments.All() {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			res, err := spec.Run(experiments.Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if claim := claims[spec.ID]; claim != nil {
				if err := claim(res); err != nil {
					t.Errorf("the notes' claim fails: %v", err)
				}
			}
			expectTable(t, published[spec.ID], render(t, res))
		})
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

// evalTables cuts eval_output.txt into one rendered table per experiment
// id: a section runs from its "== " header to the blank line before the
// next.
func evalTables(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile("eval_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	tables := map[string]string{}
	for _, section := range strings.SplitAfter(string(data), "\n\n") {
		if header, ok := strings.CutPrefix(section, "== "); ok {
			id := strings.TrimSuffix(strings.Fields(header)[0], ":")
			tables[id] = strings.TrimSuffix(section, "\n")
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
// fields of one row of that experiment's table in eval_output.txt.
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
			if m := docSectionRE.FindStringSubmatch(line); m != nil {
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
