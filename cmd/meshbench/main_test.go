package main

import (
	"strings"
	"testing"
)

// TestMeshbenchSmoke runs one fast experiment end to end and checks the
// rendered table.
func TestMeshbenchSmoke(t *testing.T) {
	t.Run("table", func(t *testing.T) {
		var out, errOut strings.Builder
		// E2 computes packet formats analytically; no simulation, so the
		// smoke test stays fast.
		if err := run(&out, &errOut, options{exp: "E2", seed: 1}); err != nil {
			t.Fatalf("run: %v\n%s", err, errOut.String())
		}
		s := out.String()
		for _, want := range []string{"== E2:", "DATA", "completed in"} {
			if !strings.Contains(s, want) {
				t.Errorf("table output missing %q:\n%s", want, s)
			}
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
}

// TestMeshbenchSecKey checks the -seckey plumbing: a valid key reaches
// the security experiment, a malformed one fails before any experiment
// runs.
func TestMeshbenchSecKey(t *testing.T) {
	var out, errOut strings.Builder
	o := options{exp: "E13", seed: 1,
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
