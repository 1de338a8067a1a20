package netsim

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// meshWork runs securedMesh's 4×4 shape, streams included, for d and
// returns the simulation and the heap allocations of the run.
func meshWork(t *testing.T, d time.Duration) (*Sim, uint64) {
	sim, _ := securedMesh(t, 4, true)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sim.Run(d)
	runtime.ReadMemStats(&after)
	return sim, after.Mallocs - before.Mallocs
}

// TestMeshWorkPerFrame pins what the per-node engine does per frame sent
// on a secured 4×4 grid (seed 1, 10 h), read from the nodes' own
// instruments: receptions handed to HandleFrame, Open calls (opened plus
// every sec.drop), HELLOs applied to the routing table, transmissions
// deferred by the duty cycle, listen-before-talk or the gate, and the
// scheduler's events, which count every transmitter pump. A change that
// only makes a layer cheaper leaves testdata/work.golden byte for byte
// as it is; one that changes what the engine does rewrites it. The
// heap allocations per frame are logged beside it (TestMeshAllocsPerFrame
// bounds them).
func TestMeshWorkPerFrame(t *testing.T) {
	sim, allocs := meshWork(t, 10*time.Hour)
	snap := sim.AggregateMetrics().Snapshot()
	frames := sim.Medium.Stats().FramesSent
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %-9s %s\n", "work", "total", "per frame")
	for _, c := range []struct {
		name string
		n    float64
	}{
		{"frames sent", float64(frames)},
		{"handed to engine", snap["total.rx.frames"]},
		{"opens", snap["total.sec.rx.opened"] + snap["total.sec.drop.auth"] + snap["total.sec.drop.replay"] + snap["total.sec.drop.legacy"]},
		{"hellos applied", snap["total.hello.received"]},
		{"deferrals", snap["total.dutycycle.deferrals"] + snap["total.cad.deferrals"] + snap["total.txgate.deferrals"]},
		{"events", float64(sim.EventsFired())},
		{"deliveries", snap["total.app.delivered"]},
	} {
		fmt.Fprintf(&b, "%-20s %-9.0f %.4f\n", c.name, c.n, c.n/float64(frames))
	}
	t.Logf("%-20s %-9d %.4f", "mallocs", allocs, float64(allocs)/float64(frames))
	want, err := os.ReadFile("testdata/work.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("work per frame departs from testdata/work.golden:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestMeshAllocsPerFrame fences the secured engine's steady state: after
// a 5 h warm-up, 10 h of securedMesh's 4×4 shape without streams make one
// heap allocation per delivery, the payload copy the delivery callback
// gets, and none per frame sent, relayed, opened or beaconed. What else
// allocates is growth to a working size that the run still reaches: a
// flow's list of unanswered sends, a regulator's history ring, a
// histogram's first hit of a bucket (33 in 3 866 frames, seed 1). The
// fence allows one such allocation per 50 frames; a per-frame allocation
// anywhere on the path, the one every forward and every HELLO page used
// to make, is 50 times that.
func TestMeshAllocsPerFrame(t *testing.T) {
	sim, flows := securedMesh(t, 4, false)
	sim.Run(5 * time.Hour)
	delivered := func() (n int) {
		for _, st := range flows {
			n += st.Delivered
		}
		return n
	}
	frames, deliveries := sim.Medium.Stats().FramesSent, delivered()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sim.Run(10 * time.Hour)
	runtime.ReadMemStats(&after)
	frames, deliveries = sim.Medium.Stats().FramesSent-frames, delivered()-deliveries
	allocs := after.Mallocs - before.Mallocs
	t.Logf("%d frames, %d deliveries, %d allocations", frames, deliveries, allocs)
	if extra := int(allocs) - deliveries; extra < 0 || extra > int(frames)/50 {
		t.Errorf("%d allocations in %d frames with %d deliveries: %d beside the deliveries' copies, want at most %d",
			allocs, frames, deliveries, extra, frames/50)
	}
}
