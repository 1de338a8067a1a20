package netsim

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/forward"
	"repro/internal/health"
	"repro/internal/packet"
	"repro/internal/trace"
)

// txInterval is one transmission a node put on the air.
type txInterval struct{ start, end time.Time }

// airLog reads every transmission out of a narrative trace stream (the
// host's tx event carries the frame's airtime), by node.
func airLog(t *testing.T, stream []byte) map[string][]txInterval {
	t.Helper()
	evs, err := trace.ReadJSONL(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]txInterval)
	for _, ev := range evs {
		var size int
		var air string
		if ev.Kind != trace.KindTx || ev.Trace != 0 {
			continue // the engines' own tx events carry a trace ID
		}
		if _, err := fmt.Sscanf(ev.Detail, "%d bytes, %s airtime", &size, &air); err != nil {
			t.Fatalf("tx event %q: %v", ev.Detail, err)
		}
		d, err := time.ParseDuration(air)
		if err != nil {
			t.Fatal(err)
		}
		out[ev.Node] = append(out[ev.Node], txInterval{ev.At, ev.At.Add(d)})
	}
	return out
}

// busiestHour returns the most airtime any rolling hour holds of the
// given transmissions: a window's usage peaks where a transmission ends,
// so only windows ending there are measured.
func busiestHour(txs []txInterval) time.Duration {
	sort.Slice(txs, func(i, j int) bool { return txs[i].start.Before(txs[j].start) })
	var worst time.Duration
	for _, w := range txs {
		from, to := w.end.Add(-time.Hour), w.end
		var used time.Duration
		for _, x := range txs {
			if !x.start.Before(to) {
				break
			}
			lo, hi := x.start, x.end
			if lo.Before(from) {
				lo = from
			}
			if hi.After(to) {
				hi = to
			}
			if hi.After(lo) {
				used += hi.Sub(lo)
			}
		}
		if used > worst {
			worst = used
		}
	}
	return worst
}

// TestEveryStrategyIsDutyGated is E8's audit run under each strategy:
// both ends of a 4-node chain send a datagram every second (about 5 % of
// an hour's airtime at SF7 before relays), and from every transmission on
// the air no node spends more than the EU868 g1 budget, 36 s, in any
// rolling hour. Then, on a quiet mesh, a burst of 100 broadcast sends,
// past the transmit queue's 64 frames, is refused with core.ErrQueueFull
// and counted as drop.queue_full.
func TestEveryStrategyIsDutyGated(t *testing.T) {
	const budget = 36 * time.Second
	for _, kind := range forward.Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			sim, err := New(Config{Topology: mustLine(t, 4, 8000), Protocol: kind, Seed: 1,
				Node: core.Config{HelloPeriod: time.Minute}, TraceCapacity: 1})
			if err != nil {
				t.Fatal(err)
			}
			var stream bytes.Buffer
			sim.Tracer.SetSink(&stream)
			sim.Run(10 * time.Minute) // proactive and slotted converge
			for _, f := range []Flow{{From: 0, To: 3}, {From: 3, To: 0}} {
				f.Payload, f.Interval = 24, time.Second
				if _, err := sim.StartFlow(f); err != nil {
					t.Fatal(err)
				}
			}
			sim.Run(70 * time.Minute)

			log := airLog(t, stream.Bytes())
			if len(log) == 0 {
				t.Fatal("no transmission on the air")
			}
			offered := false
			for node, txs := range log {
				worst := busiestHour(txs)
				if worst > budget {
					t.Errorf("node %s spent %v of one rolling hour on the air, budget %v", node, worst, budget)
				}
				offered = offered || worst > budget*9/10
			}
			if !offered {
				t.Error("no node came near the budget: the load does not exercise the gate")
			}

			// The burst runs on a fresh, quiet mesh: saturation above may
			// have let the proactive routes expire.
			sim, err = New(Config{Topology: mustLine(t, 4, 8000), Protocol: kind, Seed: 1,
				Node: core.Config{HelloPeriod: time.Minute}})
			if err != nil {
				t.Fatal(err)
			}
			sim.Run(10 * time.Minute)
			src := sim.Handle(0)
			refused := 0
			for i := 0; i < 100; i++ {
				err := src.Proto.Send(packet.Broadcast, []byte(fmt.Sprintf("burst-%03d", i)))
				switch {
				case errors.Is(err, core.ErrQueueFull):
					refused++
				case err != nil:
					t.Fatalf("send %d: %v", i, err)
				}
			}
			if refused == 0 {
				t.Error("a burst of 100 sends was never refused with core.ErrQueueFull")
			}
			if got := src.Proto.Metrics().Snapshot()["drop."+forward.DropQueueFull]; got < float64(refused) {
				t.Errorf("drop.%s = %v, want at least the %d refused sends", forward.DropQueueFull, got, refused)
			}
		})
	}
}

// TestHealthSeesDutyExhaustionUnderFlooding: a flooding node whose duty
// budget is spent trips the monitor's duty_stuck detector, which reads the
// transmit path's dutycycle.* instruments.
func TestHealthSeesDutyExhaustionUnderFlooding(t *testing.T) {
	sim, err := New(Config{Topology: mustLine(t, 3, 8000), Protocol: forward.KindFlooding, Seed: 2,
		HealthInterval: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.StartFlow(Flow{From: 0, To: 2, Payload: 24, Interval: 500 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	sim.Run(90 * time.Minute)
	for _, v := range sim.Health.Violations() {
		if v.Kind == health.KindDutyStuck {
			return
		}
	}
	t.Fatalf("a saturated flooding node never tripped %s; violations: %v", health.KindDutyStuck, sim.Health.Violations())
}
