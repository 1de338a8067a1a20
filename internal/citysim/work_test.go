package citysim

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// TestWorkPerFrame pins what sharded reception and carrier sense do per
// frame sent, in every strategy on a 1 000-node city at two shards, seed
// 1, over ten virtual minutes: hear's sender-slab walks and the links they
// visit, markCaptured's interferer-slab walks, and the linkLoss recomputes
// a code left open in hear, capture and inDeliveryRange. The golden holds
// each total and its share a frame, so a change to how links are stored
// that moves no decision leaves it byte-identical, and one that moves the
// work re-pins it and says why.
func TestWorkPerFrame(t *testing.T) {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-7s %-14s %-9s %s\n", "strategy", "frames", "count", "total", "per frame")
	for _, strategy := range []string{"proactive", "reactive", "icn", "slotted"} {
		s, err := New(Config{Nodes: 1000, Shards: 2, Seed: 1, Strategy: strategy})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(10 * time.Minute); err != nil {
			t.Fatal(err)
		}
		var w workCounts
		for _, sh := range s.shards {
			c := &sh.counts
			w.hearWalks += c.hearWalks
			w.hearLinks += c.hearLinks
			w.captureWalks += c.captureWalks
			w.exactHear += c.exactHear
			w.exactCapture += c.exactCapture
			w.exactSense += c.exactSense
		}
		frames := s.Stats().FramesSent
		for _, c := range []struct {
			name string
			n    uint64
		}{
			{"hear walks", w.hearWalks},
			{"hear links", w.hearLinks},
			{"capture walks", w.captureWalks},
			{"exact hear", w.exactHear},
			{"exact capture", w.exactCapture},
			{"exact sense", w.exactSense},
		} {
			fmt.Fprintf(&b, "%-10s %-7d %-14s %-9d %.4f\n", strategy, frames, c.name, c.n, float64(c.n)/float64(frames))
		}
	}
	want, err := os.ReadFile("testdata/work.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("work per frame departs from testdata/work.golden:\n got:\n%s\nwant:\n%s", got, want)
	}
}
