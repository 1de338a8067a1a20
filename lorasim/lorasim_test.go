package lorasim_test

import (
	"testing"
	"time"

	"repro/loramesher"
	"repro/lorasim"
)

// TestPublicAPIEndToEnd drives the library exactly as a downstream user
// would: build a topology, start a simulation, converge, exchange both
// datagram and reliable traffic.
func TestPublicAPIEndToEnd(t *testing.T) {
	topo, err := lorasim.LineTopology(4, 8000)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := lorasim.New(lorasim.Config{
		Topology: topo,
		Seed:     1,
		Node: loramesher.Config{
			HelloPeriod:    10 * time.Second,
			DutyCycleLimit: 1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := lorasim.RunUntilConverged(sim, time.Second, 10*time.Minute); !ok {
		t.Fatal("no convergence through the public API")
	}

	// Datagram across the chain.
	far := collect(sim.Handle(3))
	src := collect(sim.Handle(0))
	if err := sim.Handle(0).Proto.Send(sim.Handle(3).Addr, []byte("public api")); err != nil {
		t.Fatal(err)
	}
	sim.Run(time.Minute)
	if got := len(far.msgs); got != 1 {
		t.Fatalf("delivered %d datagrams, want 1", got)
	}

	// Reliable transfer through the Mesher-typed handle.
	if _, err := sim.Handle(0).Mesher.SendReliable(sim.Handle(3).Addr, make([]byte, 700)); err != nil {
		t.Fatal(err)
	}
	sim.Run(10 * time.Minute)
	evs := src.streams
	if len(evs) != 1 || evs[0].Err != nil {
		t.Fatalf("stream events = %+v", evs)
	}
}

func TestEstimatedRange(t *testing.T) {
	r7, err := lorasim.EstimatedRange(loramesher.DefaultPHY())
	if err != nil {
		t.Fatal(err)
	}
	phy := loramesher.DefaultPHY()
	phy.SpreadingFactor = loramesher.SF12
	r12, err := lorasim.EstimatedRange(phy)
	if err != nil {
		t.Fatal(err)
	}
	if r7 < 5e3 || r7 > 25e3 {
		t.Errorf("SF7 range = %.0f m, want km-scale", r7)
	}
	if r12 <= r7 {
		t.Errorf("SF12 range %.0f not beyond SF7 range %.0f", r12, r7)
	}
}

func TestTopologyHelpers(t *testing.T) {
	if _, err := lorasim.GridTopology(3, 3, 1000); err != nil {
		t.Error(err)
	}
	if _, err := lorasim.StarTopology(6, 2000); err != nil {
		t.Error(err)
	}
	topo, err := lorasim.RandomTopology(10, 20000, 20000, 13000, 7)
	if err != nil {
		t.Error(err)
	}
	if topo.N() != 10 {
		t.Errorf("random topology N = %d", topo.N())
	}
}

func TestFloodingThroughPublicAPI(t *testing.T) {
	topo, err := lorasim.LineTopology(3, 8000)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := lorasim.New(lorasim.Config{
		Topology: topo,
		Protocol: lorasim.KindFlooding,
		Seed:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	dst := collect(sim.Handle(2))
	if err := sim.Handle(0).Proto.Send(sim.Handle(2).Addr, []byte("flood")); err != nil {
		t.Fatal(err)
	}
	sim.Run(time.Minute)
	if len(dst.msgs) != 1 {
		t.Fatal("flooded datagram not delivered via public API")
	}
}

// inbox keeps what a node's delivery callbacks receive.
type inbox struct {
	msgs    []loramesher.Message
	streams []loramesher.StreamEvent
}

// collect chains an inbox in front of any OnMessage/OnStreamDone
// already installed on h.
func collect(h *lorasim.Handle) *inbox {
	in := &inbox{}
	prevMsg, prevStream := h.OnMessage, h.OnStreamDone
	h.OnMessage = func(m loramesher.Message) {
		in.msgs = append(in.msgs, m)
		if prevMsg != nil {
			prevMsg(m)
		}
	}
	h.OnStreamDone = func(ev loramesher.StreamEvent) {
		in.streams = append(in.streams, ev)
		if prevStream != nil {
			prevStream(ev)
		}
	}
	return in
}
