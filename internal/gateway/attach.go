package gateway

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/packet"
)

// This file wires a Gateway onto the repo's mesh runtimes.
//
// The deterministic simulator needs an externally-clocked drive: Sim
// chains onto the sink handle's OnMessage hook and reschedules
// Gateway.Poll on the virtual scheduler, so uplink batching, backoff, and
// breaker windows all elapse in virtual time and a scenario stays
// bit-for-bit reproducible. (The HTTP POST itself runs synchronously
// inside the scheduled event — wall-clock work under a paused virtual
// clock, invisible to the simulation.)
//
// The wall-clock runtime (a livenet.Host, over either link) just needs
// the observer hook and a downlink sender; AttachHost wires both and the
// caller runs the real-time loop with Gateway.Start.

// Sim attaches a Gateway to one node of a netsim simulation.
type Sim struct {
	g        *Gateway
	sim      *netsim.Sim
	h        *netsim.Handle
	detached bool
}

// AttachSim hooks g onto node index's deliveries and starts polling the
// uplinker on the simulation's scheduler. The node keeps accumulating
// Msgs and running any previously-installed OnMessage observer; the
// gateway observes in addition, not instead.
func AttachSim(s *netsim.Sim, index int, g *Gateway) (*Sim, error) {
	if index < 0 || index >= s.N() {
		return nil, fmt.Errorf("gateway: attach: node %d out of range", index)
	}
	h := s.Handle(index)
	g.setAddr(h.Addr)
	if g.cfg.Spans == nil {
		// Inherit the simulation's recorder (when span capture is on) so
		// a reading's span tree runs mesh hop → spool → backend uplink.
		g.cfg.Spans = s.Spans
	}
	a := &Sim{g: g, sim: s, h: h}

	prev := h.OnMessage
	h.OnMessage = func(m core.AppMessage) {
		if prev != nil {
			prev(m)
		}
		if !a.detached {
			g.OfferMessage(m)
		}
	}
	g.SetSender(func(d Downlink) error {
		if a.detached {
			return fmt.Errorf("gateway: detached from simulation")
		}
		if d.Reliable {
			if a.h.Mesher == nil {
				return fmt.Errorf("gateway: node %v has no reliable transport", a.h.Addr)
			}
			_, err := a.h.Mesher.SendReliable(d.To, d.Payload)
			return err
		}
		return a.h.Proto.Send(d.To, d.Payload)
	})

	var tick func()
	tick = func() {
		if a.detached {
			return
		}
		d := g.Poll(s.Now())
		if d <= 0 {
			d = time.Millisecond
		}
		s.Sched.MustAfter(d, tick)
	}
	// First poll after one flush interval; deliveries before that simply
	// accumulate into the first batch.
	s.Sched.MustAfter(g.cfg.FlushInterval, tick)
	return a, nil
}

// Detach stops the adapter: deliveries are no longer offered and polling
// ceases at the next tick. The gateway itself stays usable — close it,
// or re-attach a successor to model a process restart on the same spool.
func (a *Sim) Detach() { a.detached = true }

// Gateway returns the attached gateway.
func (a *Sim) Gateway() *Gateway { return a.g }

// MeshHost is the surface the wall-clock runtime exposes for gateway
// attachment; *livenet.Host satisfies it. It is declared here so the
// gateway does not import the runtime.
type MeshHost interface {
	Addr() packet.Address
	SetOnMessage(func(core.AppMessage))
	Send(dst packet.Address, payload []byte) error
	SendReliable(dst packet.Address, payload []byte) (uint8, error)
}

// AttachHost hooks g onto a live host's deliveries and downlink path.
// Drive the uplinker with g.Start(); the observer must stay cheap, and
// Offer is (it never touches the network).
func AttachHost(h MeshHost, g *Gateway) {
	g.setAddr(h.Addr())
	h.SetOnMessage(func(m core.AppMessage) { g.OfferMessage(m) })
	g.SetSender(func(d Downlink) error {
		if d.Reliable {
			_, err := h.SendReliable(d.To, d.Payload)
			return err
		}
		return h.Send(d.To, d.Payload)
	})
}
