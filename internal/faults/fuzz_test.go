package faults

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzLoadPlan drives the plan loader with arbitrary documents: a plan
// file is operator input. Load must not panic, and a plan that loads and
// validates must re-marshal to a document that loads to an equal plan —
// a scenario travels as (plan file, seed), so a plan that changes when it
// is written back out is a replay that diverges. The committed seeds
// (testdata/fuzz/FuzzLoadPlan) are the plan documents the repo ships:
// README's, the round-trip test's, and cmd/meshsim's.
func FuzzLoadPlan(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Load(bytes.NewReader(data))
		if err != nil || p.Validate(8) != nil {
			return
		}
		doc, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("marshal of a valid plan: %v\n%+v", err, p)
		}
		p2, err := Load(bytes.NewReader(doc))
		if err != nil {
			t.Fatalf("re-marshalled plan does not load: %v\n%s", err, doc)
		}
		if err := p2.Validate(8); err != nil {
			t.Fatalf("re-marshalled plan does not validate: %v\n%s", err, doc)
		}
		// Compared as documents: omitempty folds an empty list into an
		// absent one, which is the same plan.
		if doc2, _ := json.Marshal(p2); !bytes.Equal(doc, doc2) {
			t.Fatalf("round trip diverged:\n%s\n%s", doc, doc2)
		}
	})
}
