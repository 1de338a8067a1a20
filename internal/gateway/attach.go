package gateway

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/livenet"
	"repro/internal/netsim"
)

// This file wires a Gateway onto the repo's mesh runtimes.
//
// The deterministic simulator needs an externally-clocked drive: AttachSim
// chains onto the sink handle's OnMessage hook and reschedules
// Gateway.Poll on the virtual scheduler, so uplink batching, backoff, and
// breaker windows all elapse in virtual time and a scenario stays
// bit-for-bit reproducible. (The HTTP POST itself runs synchronously
// inside the scheduled event — wall-clock work under a paused virtual
// clock, invisible to the simulation.)
//
// The wall-clock runtime (a livenet.Host) just needs
// the observer hook and a downlink sender; AttachHost wires both and the
// caller runs the real-time loop with Gateway.Start.

// AttachSim hooks g onto node index's deliveries and starts polling the
// uplinker on the simulation's scheduler. Any OnMessage already
// installed keeps running; the gateway observes in addition. The
// attachment lasts as long as g does: a closed gateway refuses offers
// and launches nothing, so closing it and attaching a successor on the
// same spool models a process restart.
func AttachSim(s *netsim.Sim, index int, g *Gateway) error {
	if index < 0 || index >= s.N() {
		return fmt.Errorf("gateway: attach: node %d out of range", index)
	}
	h := s.Handle(index)
	g.setAddr(h.Addr)
	if g.cfg.Tracer == nil {
		// Inherit the simulation's tracer (when span capture is on) so
		// a reading's span tree runs mesh hop → spool → backend uplink.
		g.cfg.Tracer = s.Tracer
	}

	prev := h.OnMessage
	h.OnMessage = func(m core.AppMessage) {
		if prev != nil {
			prev(m)
		}
		g.OfferMessage(m)
	}
	g.SetSender(func(d Downlink) error {
		if d.Reliable {
			if h.Mesher == nil {
				return fmt.Errorf("gateway: node %v has no reliable transport", h.Addr)
			}
			_, err := h.Mesher.SendReliable(d.To, d.Payload)
			return err
		}
		return h.Proto.Send(d.To, d.Payload)
	})

	var tick func()
	tick = func() {
		d := g.Poll(s.Now())
		if d <= 0 {
			d = time.Millisecond
		}
		s.Sched.MustAfter(d, tick)
	}
	// First poll after one flush interval; deliveries before that simply
	// accumulate into the first batch.
	s.Sched.MustAfter(g.cfg.FlushInterval, tick)
	return nil
}

// AttachHost hooks g onto a live host's deliveries and downlink path.
// Drive the uplinker with g.Start(); the observer must stay cheap, and
// Offer is (it never touches the network).
func AttachHost(h *livenet.Host, g *Gateway) {
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
