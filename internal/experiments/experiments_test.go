package experiments

import (
	"strings"
	"testing"
	"time"
)

func TestResultWriteTo(t *testing.T) {
	res := &Result{
		ID:     "EX",
		Title:  "example",
		Header: []string{"col", "value"},
		Notes:  []string{"a note"},
	}
	res.AddRow("first", "1")
	res.AddRow("second-longer", "2")
	var sb strings.Builder
	if _, err := res.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"== EX: example ==", "col", "second-longer", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Columns are aligned: both rows place the second cell at the same
	// offset.
	lines := strings.Split(out, "\n")
	var rows []string
	for _, l := range lines {
		if strings.HasPrefix(l, "first") || strings.HasPrefix(l, "second") {
			rows = append(rows, l)
		}
	}
	if len(rows) != 2 || strings.Index(rows[0], "1") != strings.Index(rows[1], "2") {
		t.Errorf("rows not aligned:\n%s", out)
	}

	// A row wider than the header renders its extra cell unpadded.
	res.AddRow("third", "3", "extra")
	sb.Reset()
	if _, err := res.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if want := "third          3      extra\n"; !strings.Contains(sb.String(), want) {
		t.Errorf("ragged row: output missing %q:\n%s", want, sb.String())
	}
}

func TestFindAndIDs(t *testing.T) {
	if _, ok := Find("e7"); !ok {
		t.Error("Find should be case-insensitive")
	}
	if _, ok := Find("E99"); ok {
		t.Error("Find returned a bogus experiment")
	}
	seen := map[string]bool{}
	for _, spec := range All() {
		if seen[spec.ID] {
			t.Errorf("duplicate experiment id %s", spec.ID)
		}
		seen[spec.ID] = true
	}
	for _, want := range []string{"E1", "E10", "A5"} {
		if !seen[want] {
			t.Errorf("missing experiment %s", want)
		}
	}
}

func TestEverySpecHasRunAndTitle(t *testing.T) {
	for _, s := range All() {
		if s.Run == nil {
			t.Errorf("%s has no Run func", s.ID)
		}
		if s.Title == "" {
			t.Errorf("%s has no title", s.ID)
		}
	}
}

func TestFormatHelpers(t *testing.T) {
	if got := fmtDur(90 * time.Second); got != "1.5min" {
		t.Errorf("fmtDur(90s) = %q", got)
	}
	if got := fmtDur(2500 * time.Millisecond); got != "2.50s" {
		t.Errorf("fmtDur(2.5s) = %q", got)
	}
	if got := fmtDur(42 * time.Millisecond); got != "42ms" {
		t.Errorf("fmtDur(42ms) = %q", got)
	}
	if got := fmtPct(0.123); got != "12.3%" {
		t.Errorf("fmtPct = %q", got)
	}
	if got := fmtF(3.14159, 2); got != "3.14" {
		t.Errorf("fmtF = %q", got)
	}
	if got := median([]time.Duration{3, 1, 2}); got != 2 {
		t.Errorf("median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v", got)
	}
}
