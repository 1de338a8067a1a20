package main

import (
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"
)

// TestMeshbenchSmoke runs one fast experiment end to end in every output
// format and checks each rendering is well-formed.
func TestMeshbenchSmoke(t *testing.T) {
	// E2 computes packet formats analytically; no simulation, so the
	// smoke test stays fast.
	base := options{exp: "E2", quick: true, seed: 1}

	t.Run("table", func(t *testing.T) {
		var out, errOut strings.Builder
		o := base
		o.format = "table"
		if err := run(&out, &errOut, o); err != nil {
			t.Fatalf("run: %v\n%s", err, errOut.String())
		}
		s := out.String()
		for _, want := range []string{"== E2:", "DATA", "completed in"} {
			if !strings.Contains(s, want) {
				t.Errorf("table output missing %q:\n%s", want, s)
			}
		}
	})

	t.Run("csv", func(t *testing.T) {
		var out, errOut strings.Builder
		o := base
		o.format = "csv"
		if err := run(&out, &errOut, o); err != nil {
			t.Fatalf("run: %v\n%s", err, errOut.String())
		}
		cr := csv.NewReader(strings.NewReader(out.String()))
		cr.FieldsPerRecord = -1
		recs, err := cr.ReadAll()
		if err != nil {
			t.Fatalf("output is not valid CSV: %v\n%s", err, out.String())
		}
		// Comment row, header row, and at least one data row.
		if len(recs) < 3 || recs[0][0] != "# E2" {
			t.Fatalf("unexpected CSV shape: %v", recs)
		}
		if len(recs[2]) != len(recs[1]) {
			t.Fatalf("data row width %d != header width %d", len(recs[2]), len(recs[1]))
		}
	})

	t.Run("json", func(t *testing.T) {
		var out, errOut strings.Builder
		o := base
		o.format = "json"
		if err := run(&out, &errOut, o); err != nil {
			t.Fatalf("run: %v\n%s", err, errOut.String())
		}
		var doc struct {
			ID     string     `json:"id"`
			Header []string   `json:"header"`
			Rows   [][]string `json:"rows"`
		}
		if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
			t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
		}
		if doc.ID != "E2" || len(doc.Header) == 0 || len(doc.Rows) == 0 {
			t.Fatalf("unexpected JSON document: %+v", doc)
		}
	})
}

func TestMeshbenchList(t *testing.T) {
	var out, errOut strings.Builder
	if err := run(&out, &errOut, options{list: true}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"E1", "E11", "A1", "X1"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-list missing %s", want)
		}
	}
}

func TestMeshbenchUnknownExperiment(t *testing.T) {
	var out, errOut strings.Builder
	if err := run(&out, &errOut, options{exp: "E99"}); err == nil {
		t.Fatal("unknown experiment must fail")
	}
	if err := run(&out, &errOut, options{exp: "E2", format: "yaml"}); err == nil {
		t.Fatal("unknown format must fail")
	}
}

// TestMeshbenchSecKey checks the -seckey plumbing: a valid key reaches
// the security experiment, a malformed one fails before any experiment
// runs.
func TestMeshbenchSecKey(t *testing.T) {
	var out, errOut strings.Builder
	o := options{exp: "E13", quick: true, seed: 1, format: "table",
		seckey: "000102030405060708090a0b0c0d0e0f"}
	if err := run(&out, &errOut, o); err != nil {
		t.Fatalf("run: %v\n%s", err, errOut.String())
	}
	if !strings.Contains(out.String(), "== E13:") {
		t.Errorf("output missing the E13 table:\n%s", out.String())
	}

	o.seckey = "tooshort"
	if err := run(&out, &errOut, o); err == nil {
		t.Fatal("malformed -seckey must fail")
	}
}
