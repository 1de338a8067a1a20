package main

import (
	"strings"
	"testing"
	"time"
)

// TestMeshgwEndToEnd boots the full demo — UDP chain, sink gateway,
// embedded backend — and checks that every counted reading is uplinked
// exactly once and the downlink command crosses back into the mesh.
func TestMeshgwEndToEnd(t *testing.T) {
	var sb strings.Builder
	o := options{
		n:         3,
		flush:     300 * time.Millisecond,
		interval:  150 * time.Millisecond,
		count:     4,
		duration:  30 * time.Second,
		timescale: 100,
	}
	if err := run(&sb, o); err != nil {
		t.Fatalf("run: %v\n%s", err, sb.String())
	}
	out := sb.String()
	for _, want := range []string{
		"embedded backend listening",
		"mesh converged",
		"backend: 8 distinct readings, 0 duplicates",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// The downlink is best-effort within the run window but should make
	// it across a healthy 3-node chain.
	if !strings.Contains(out, "downlink to 0003 delivered: true") {
		t.Errorf("downlink did not arrive:\n%s", out)
	}
}

func TestMeshgwValidation(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, options{n: 1}); err == nil {
		t.Fatal("n=1 should be rejected")
	}
}
