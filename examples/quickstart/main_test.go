package main

import (
	"os"
	"strings"
	"testing"
)

// TestQuickstartOutput holds the quickstart's narration, README's first
// command, to testdata/output.golden byte for byte: the scene runs on
// virtual time from a fixed seed. A change that means to move it
// regenerates the file:
// go run ./examples/quickstart > examples/quickstart/testdata/output.golden
func TestQuickstartOutput(t *testing.T) {
	want, err := os.ReadFile("testdata/output.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	if err := run(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("output differs from testdata/output.golden\n--- got ---\n%s--- want ---\n%s", got.String(), want)
	}
}
