// Package repro's root test keeps the whole evaluation green under
// `go test ./...`: every experiment in DESIGN.md's index runs once in
// Quick mode. Performance is measured by bench/ (see BENCHMARK.json), not
// here.
package repro

import (
	"testing"

	"repro/internal/experiments"
)

// TestAllExperimentsQuick runs every experiment once in Quick mode so the
// full evaluation pipeline stays green under `go test`.
func TestAllExperimentsQuick(t *testing.T) {
	for _, spec := range experiments.All() {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			res, err := spec.Run(experiments.Options{Seed: 1, Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) == 0 {
				t.Fatal("no rows produced")
			}
			if res.ID != spec.ID {
				t.Errorf("result id %q != spec id %q", res.ID, spec.ID)
			}
		})
	}
}
