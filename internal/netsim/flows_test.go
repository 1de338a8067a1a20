package netsim

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/routing"
)

// TestFlowDispatchMatchesChain runs 63 Poisson flows into one sink of an
// 8×8 secured grid, mesh_secure's shape, once through StartFlow and once
// through the closure-per-flow chain it replaced (chainedStartFlow): every
// flow's Offered, Accepted, Delivered and Latencies, and every metric of
// the run, must agree. The controller cases make the sink the
// controller's host and attach it before, after or between the flows.
func TestFlowDispatchMatchesChain(t *testing.T) {
	for _, ctl := range []string{"none", "first", "last", "between"} {
		t.Run("controller="+ctl, func(t *testing.T) {
			type outcome struct {
				flows   []TrafficStats
				metrics map[string]float64
			}
			run := func(start func(*Sim, Flow) (*TrafficStats, error)) outcome {
				topo, err := geo.Grid(8, 8, 6000)
				if err != nil {
					t.Fatal(err)
				}
				cfg := Config{
					Topology: topo,
					Seed:     1,
					SecKey:   &secTestKey,
					Node:     core.Config{HelloPeriod: 5 * time.Minute, Routing: routing.Config{EntryTTL: 25 * time.Minute}},
				}
				sink, d := 4*8+4, 3*time.Hour
				if ctl != "none" {
					cfg.HealthInterval, sink, d = time.Minute, controllerHost, time.Hour
				}
				sim, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				attach := func() {
					if _, err := sim.AttachController(control.Config{State: ctlState()}); err != nil {
						t.Fatal(err)
					}
				}
				if ctl == "first" {
					attach()
				}
				var all []*TrafficStats
				for i := 0; i < sim.N(); i++ {
					if i == sink {
						continue
					}
					if ctl == "between" && i == sim.N()/2 {
						attach()
					}
					st, err := start(sim, Flow{From: i, To: sink, Payload: 16 + i%17, Interval: 5 * time.Minute, Poisson: true})
					if err != nil {
						t.Fatal(err)
					}
					all = append(all, st)
				}
				if ctl == "last" {
					attach()
				}
				sim.Run(d)
				var o outcome
				for _, st := range all {
					o.flows = append(o.flows, TrafficStats{Offered: st.Offered, Accepted: st.Accepted,
						Delivered: st.Delivered, Latencies: st.Latencies})
				}
				o.metrics = sim.AggregateMetrics().Snapshot()
				for name := range o.metrics {
					if strings.Contains(name, "_ns") {
						delete(o.metrics, name) // wall-clock timings
					}
				}
				return o
			}
			got, want := run((*Sim).StartFlow), run(chainedStartFlow)
			delivered := 0
			for i := range want.flows {
				if !reflect.DeepEqual(got.flows[i], want.flows[i]) {
					t.Fatalf("flow %d: %+v, want %+v", i, got.flows[i], want.flows[i])
				}
				delivered += want.flows[i].Delivered
			}
			if !reflect.DeepEqual(got.metrics, want.metrics) {
				t.Errorf("metrics differ:\n got %v\nwant %v", got.metrics, want.metrics)
			}
			if delivered == 0 {
				t.Error("no flow delivered anything")
			}
		})
	}
}

// chainedStartFlow is StartFlow as it was before the per-destination
// dispatcher: one OnMessage closure per flow, chained in front of the
// last, and every instrument looked up by name on every use.
func chainedStartFlow(s *Sim, f Flow) (*TrafficStats, error) {
	if f.From < 0 || f.From >= s.N() || f.To < 0 || f.To >= s.N() || f.From == f.To {
		return nil, fmt.Errorf("netsim: flow endpoints %d->%d invalid", f.From, f.To)
	}
	if f.Payload < 8 {
		f.Payload = 8
	}
	if f.Interval <= 0 {
		return nil, fmt.Errorf("netsim: flow interval must be positive")
	}
	stats := &TrafficStats{}
	src := s.handles[f.From]
	dst := s.handles[f.To]
	var seq uint32

	prevOnMessage := dst.OnMessage
	dst.OnMessage = func(msg core.AppMessage) {
		if prevOnMessage != nil {
			prevOnMessage(msg)
		}
		if msg.From != src.Addr || len(msg.Payload) < 4 {
			return
		}
		tag := uint32(msg.Payload[0])<<24 | uint32(msg.Payload[1])<<16 |
			uint32(msg.Payload[2])<<8 | uint32(msg.Payload[3])
		if lag := seq - tag; lag == 0 || lag > flowHorizon {
			return
		}
		at := stats.sent[tag%flowHorizon]
		if at == unsent {
			return
		}
		stats.sent[tag%flowHorizon] = unsent
		stats.Delivered++
		lat := time.Duration(msg.At.UnixNano() - at)
		stats.Latencies = append(stats.Latencies, lat)
		s.reg.Counter("flows.delivered").Inc()
		s.reg.Histogram("e2e.latency_ms").ObserveDuration(lat)
		if s.latencyBound > 0 && lat > s.latencyBound {
			s.Health.LateFlow(src.Addr, dst.Addr, lat, s.latencyBound)
		}
	}

	var fire func()
	arm := func() {
		gap := f.Interval
		if f.Poisson {
			u := s.rng.Float64()
			gap = time.Duration(float64(f.Interval) * math.Max(-math.Log(1-u), 1e-3))
		}
		s.Sched.MustAfter(gap, fire)
	}
	fire = func() {
		if f.Count > 0 && stats.Offered >= f.Count {
			return
		}
		if src.killed {
			return
		}
		if src.down {
			arm()
			return
		}
		payload := make([]byte, f.Payload)
		tag := seq
		seq++
		payload[0], payload[1], payload[2], payload[3] =
			byte(tag>>24), byte(tag>>16), byte(tag>>8), byte(tag)
		stats.Offered++
		s.reg.Counter("flows.offered").Inc()
		if len(stats.sent) < flowHorizon {
			stats.sent = append(stats.sent, unsent)
		}
		stats.sent[tag%flowHorizon] = unsent
		if err := src.Proto.Send(dst.Addr, payload); err == nil {
			stats.Accepted++
			s.reg.Counter("flows.accepted").Inc()
			stats.sent[tag%flowHorizon] = s.Sched.Now().UnixNano()
		}
		if f.Count == 0 || stats.Offered < f.Count {
			arm()
		}
	}
	arm()
	return stats, nil
}
