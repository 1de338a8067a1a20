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

func TestMeshbenchUnknownExperiment(t *testing.T) {
	var out, errOut strings.Builder
	if err := run(&out, &errOut, options{exp: "E99"}); err == nil {
		t.Fatal("unknown experiment must fail")
	}
}
