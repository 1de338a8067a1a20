package netsim_test

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/forward"
	"repro/internal/gateway"
	"repro/internal/geo"
	"repro/internal/netsim"
	"repro/internal/routing"
	"repro/internal/span"
	"repro/internal/trace"
)

// The files under testdata/golden were recorded at commit 307a658, the
// last one with two recorders (the tracer, and a separate span ring it
// was attached to), by these same scenarios: trace-only and both
// streamed the tracer's sink; spans-only, which had no tracer then,
// forwarded the span ring into a sink-only tracer and was checked equal
// to what the ring retained. The "neither" file is the run's behaviour
// summary, which every mode must reproduce — observers read the
// simulation, they never steer it.
//
// Two fields of the gateway's segments are wall-clock and masked on both
// sides: the stamp of the three admission-time segments (time.Now()) and
// the HTTP round trip carried as the uplink segment's duration.

type goldenMode struct {
	name         string
	trace, spans int
}

var goldenModes = []goldenMode{
	{"trace", 4096, 0},
	{"spans", 0, 4096},
	{"both", 4096, 4096},
	{"neither", 0, 0},
}

// goldenScenario builds a simulation under m's capacities, attaches the
// sink once the mesh has settled, runs its traffic and returns the
// simulation with a one-line summary of what was delivered.
type goldenScenario struct {
	name string
	run  func(t *testing.T, m goldenMode, sink *bytes.Buffer) (*netsim.Sim, string)
}

func goldenNode() core.Config {
	return core.Config{
		HelloPeriod: 2 * time.Minute,
		StreamRetry: 5 * time.Second,
		Routing:     routing.Config{EntryTTL: 10 * time.Minute},
	}
}

func goldenChain(t *testing.T, m goldenMode, cfg netsim.Config) *netsim.Sim {
	t.Helper()
	topo, err := geo.Line(4, 8000)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Topology, cfg.TraceCapacity, cfg.SpanCapacity = topo, m.trace, m.spans
	sim, err := netsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.trace == 0 && m.spans == 0 && sim.Tracer != nil {
		t.Fatal("both capacities zero must build no tracer")
	}
	if cfg.Protocol == "" {
		if _, ok := sim.TimeToConvergence(30*time.Second, 30*time.Minute); !ok {
			t.Fatal("chain never converged")
		}
	}
	return sim
}

var goldenScenarios = []goldenScenario{
	{"stream", func(t *testing.T, m goldenMode, sink *bytes.Buffer) (*netsim.Sim, string) {
		sim := goldenChain(t, m, netsim.Config{Node: goldenNode(), Seed: 5})
		sim.Tracer.SetSink(sink)
		payload := bytes.Repeat([]byte("reliable "), 20)
		if _, err := sim.Handle(0).Mesher.SendReliable(sim.Handle(3).Addr, payload); err != nil {
			t.Fatal(err)
		}
		sim.Run(90 * time.Second)
		evs := sim.Handle(0).StreamEvents
		if len(evs) != 1 || evs[0].Err != nil {
			t.Fatalf("stream outcome: %+v", evs)
		}
		return sim, fmt.Sprintf("stream chunks=%d retrans=%d delivered=%d",
			evs[0].Chunks, evs[0].Retransmissions, len(sim.Handle(3).Msgs))
	}},
	{"gateway", func(t *testing.T, m goldenMode, sink *bytes.Buffer) (*netsim.Sim, string) {
		b := gateway.NewBackend()
		srv := httptest.NewServer(b)
		t.Cleanup(srv.Close)
		sim := goldenChain(t, m, netsim.Config{Node: goldenNode(), Seed: 6})
		g, err := gateway.New(gateway.Config{
			URLs: []string{srv.URL}, BatchSize: 4, FlushInterval: 10 * time.Second,
			RetryBase: 5 * time.Second, RetryMax: 20 * time.Second, BreakerThreshold: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { g.Close() })
		if err := gateway.AttachSim(sim, 0, g); err != nil {
			t.Fatal(err)
		}
		sim.Tracer.SetSink(sink)
		// The backend is down while the readings arrive, so the spool
		// holds them across failed batches until it comes back.
		b.SetFailing(true)
		sim.Sched.MustAfter(40*time.Second, func() { b.SetFailing(false) })
		for _, f := range []struct{ from, count int }{{1, 3}, {3, 1}} {
			if _, err := sim.StartFlow(netsim.Flow{
				From: f.from, To: 0, Payload: 12, Interval: 8 * time.Second, Count: f.count, Poisson: true,
			}); err != nil {
				t.Fatal(err)
			}
		}
		sim.Run(100 * time.Second)
		if g.Pending() != 0 || b.Duplicates() != 0 {
			t.Fatalf("spool pending=%d, backend duplicates=%d", g.Pending(), b.Duplicates())
		}
		snap := g.Metrics().Snapshot()
		return sim, fmt.Sprintf("gateway sink=%d backend=%d uplink_failures=%d",
			len(sim.Handle(0).Msgs), b.Distinct(), int(snap["gw.uplink.failures"]))
	}},
	{"icn", func(t *testing.T, m goldenMode, sink *bytes.Buffer) (*netsim.Sim, string) {
		sim := goldenChain(t, m, netsim.Config{
			Protocol: forward.KindICN, Seed: 7,
			ICNProduce: func(i int, name string) []byte {
				if i == 3 {
					return []byte("content(" + name + ")")
				}
				return nil
			},
		})
		sim.Tracer.SetSink(sink)
		// Node 1 pulls the name first, so node 0's later interest is
		// answered from node 1's content store.
		for _, pull := range []struct {
			at   time.Duration
			node int
		}{{time.Second, 1}, {30 * time.Second, 0}} {
			pull := pull
			sim.Sched.MustAfter(pull.at, func() {
				if err := sim.Handle(pull.node).ICN.Express("sensor/temp"); err != nil {
					t.Errorf("express: %v", err)
				}
			})
		}
		sim.Run(time.Minute)
		hits := sim.AggregateMetrics().Snapshot()["total.icn.cs.hit"]
		if hits == 0 {
			t.Fatal("no content-store hit")
		}
		return sim, fmt.Sprintf("icn delivered=%d+%d cs_hits=%d",
			len(sim.Handle(1).Msgs), len(sim.Handle(0).Msgs), int(hits))
	}},
	{"fault", func(t *testing.T, m goldenMode, sink *bytes.Buffer) (*netsim.Sim, string) {
		sim := goldenChain(t, m, netsim.Config{Node: goldenNode(), Seed: 8})
		sim.Tracer.SetSink(sink)
		if err := sim.ApplyFaultPlan(&faults.Plan{
			Name: "eat-frames",
			Links: []faults.LinkFault{
				{From: 1, To: 2, Symmetric: true, Kind: faults.KindBernoulli, P: 0.5},
			},
		}); err != nil {
			t.Fatal(err)
		}
		st, err := sim.StartFlow(netsim.Flow{
			From: 0, To: 3, Payload: 16, Interval: 10 * time.Second, Count: 4, Poisson: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		// One drop the engine itself accounts: no route at the origin.
		sim.Sched.MustAfter(5*time.Second, func() {
			if err := sim.Handle(0).Proto.Send(0x0F00, []byte("nowhere")); err == nil {
				t.Error("send to an unknown address found a route")
			}
		})
		sim.Run(time.Minute)
		eaten := sim.FaultStats()[faults.ReasonLoss]
		if eaten == 0 {
			t.Fatal("the fault plan ate nothing")
		}
		return sim, fmt.Sprintf("fault offered=%d delivered=%d eaten=%d", st.Offered, st.Delivered, eaten)
	}},
}

var (
	gwLine   = regexp.MustCompile(`(?m)^\{"at":"[^"]*"(,"node":"gw\.[^\n]*"detail":"gw_(?:duplicate|evicted|spool)","seg":"(?:drop|enqueue)")`)
	gwUplink = regexp.MustCompile(`("detail":"gw_uplink","seg":"deliver","dur_ns":)\d+`)
)

// maskWallClock blanks the gateway segment fields that are read from the
// wall clock (see the file comment).
func maskWallClock(b []byte) []byte {
	b = gwLine.ReplaceAll(b, []byte(`{"at":"WALL"$1`))
	return gwUplink.ReplaceAll(b, []byte(`${1}0`))
}

// firstDiff names the first line at which two streams part.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d\n got  %s\n want %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}

func TestStreamsMatchParentGoldens(t *testing.T) {
	for _, sc := range goldenScenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			want := func(mode string) []byte {
				b, err := os.ReadFile(filepath.Join("testdata", "golden", sc.name+"."+mode))
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			summary := strings.TrimSpace(string(want("neither")))
			for _, m := range goldenModes {
				var sink bytes.Buffer
				sim, got := sc.run(t, m, &sink)
				if got != summary {
					t.Errorf("%s: run summary %q, want %q: an observer changed what it observed", m.name, got, summary)
				}
				if m.name == "neither" {
					if sink.Len() != 0 {
						t.Errorf("neither: %d bytes streamed with both classes off", sink.Len())
					}
					continue
				}
				stream := maskWallClock(sink.Bytes())
				if !bytes.Equal(stream, want(m.name)) {
					t.Errorf("%s: JSONL stream differs from the parent's recording: %s",
						m.name, firstDiff(stream, want(m.name)))
				}
				if m.name == "spans" {
					// What the span ring retained is what the tracer's ring
					// now decodes to.
					evs, err := trace.ReadJSONL(bytes.NewReader(sink.Bytes()))
					if err != nil {
						t.Fatal(err)
					}
					fromRing, fromSink := span.FromEvents(sim.Tracer.Events()), span.FromEvents(evs)
					if len(fromRing) == 0 || len(fromRing) != len(fromSink) {
						t.Fatalf("spans: ring holds %d segments, sink saw %d", len(fromRing), len(fromSink))
					}
					for i := range fromRing {
						a, b := fromRing[i], fromSink[i]
						if !a.At.Equal(b.At) {
							t.Fatalf("spans: segment %d stamped %v in the ring, %v in the sink", i, a.At, b.At)
						}
						a.At, b.At = time.Time{}, time.Time{}
						if !reflect.DeepEqual(a, b) {
							t.Fatalf("spans: segment %d: ring %+v, sink %+v", i, a, b)
						}
					}
				}
			}
		})
	}
}
