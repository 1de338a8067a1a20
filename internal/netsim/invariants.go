package netsim

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/forward"
	"repro/internal/health"
)

// CheckInvariants audits cross-layer accounting after (or during) a run
// and returns every violated invariant joined into one error, or nil. The
// checks catch bookkeeping drift between the protocol engines, the duty
// regulators, the fault-injection layer, and the medium — the kind of bug
// that silently skews experiment results rather than failing tests.
func (s *Sim) CheckInvariants() error {
	var errs []error
	snap := s.AggregateMetrics().Snapshot()
	ms := s.Medium.Stats()

	// Every frame the engines report transmitted appears at the medium;
	// attacker stations transmit outside any engine and account for the
	// difference.
	if got, want := float64(ms.FramesSent), snap["total.tx.frames"]+snap["sim.attacker.tx.frames"]; got != want {
		errs = append(errs, fmt.Errorf("medium saw %v frames, engines sent %v", got, want))
	}

	// Every frame the medium delivered was either received by an engine,
	// overheard by an attacker station, or eaten — and accounted — by
	// the fault-injection layer between the medium and the engine.
	received := uint64(snap["total.rx.frames"])
	var faultDrops uint64
	for name, v := range snap {
		if strings.HasPrefix(name, "sim.drop.fault.") {
			faultDrops += uint64(v)
		}
	}
	attackerRx := uint64(snap["sim.attacker.rx.frames"])
	if ms.FramesDelivered != received+faultDrops+attackerRx {
		errs = append(errs, fmt.Errorf(
			"medium delivered %d frames, engines received %d + fault layer dropped %d + attackers overheard %d",
			ms.FramesDelivered, received, faultDrops, attackerRx))
	}

	// Per-node: the engine's duty accounting matches the medium's
	// airtime for that station. Engines discarded by crash/restart
	// contributed airtimeRetired; the station's meter spans them all.
	for _, h := range s.handles {
		if h.Mesher == nil {
			continue
		}
		stationAir, err := s.Medium.StationAirtime(h.Station)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		nodeAir := h.Mesher.AirtimeUsed() + h.airtimeRetired
		if diff := nodeAir - stationAir; diff < -time.Millisecond || diff > time.Millisecond {
			errs = append(errs, fmt.Errorf("node %v duty accounting %v != medium airtime %v",
				h.Addr, nodeAir, stationAir))
		}
	}

	// Deliveries never exceed sends plus forwards (conservation).
	if snap["total.app.delivered"] > snap["total.app.sent"]+snap["total.stream.received"]+snap["total.tx.frames"] {
		errs = append(errs, fmt.Errorf("more deliveries (%v) than traffic could produce",
			snap["total.app.delivered"]))
	}

	// The scheduler never went backwards and fired a sane number of
	// events for the elapsed time.
	if s.Sched.Now().Before(Epoch) {
		errs = append(errs, fmt.Errorf("clock ran backwards: %v < %v", s.Sched.Now(), Epoch))
	}
	return errors.Join(errs...)
}

// CheckRoutingLoops asserts the no-loop and no-blackhole properties of
// the current routing state: for every live (source, destination) pair,
// following next hops either reaches the destination or runs out of
// routes — it never revisits a node (loop) and never hands a packet to a
// crashed or killed next hop (blackhole). Routing is only expected to
// satisfy this once it has stabilized after a topology change; chaos
// scenarios call it after their convergence window, not mid-churn.
//
// The walk itself lives in internal/health (RouteFaults), where the
// always-on monitor runs the same detection continuously at runtime;
// this method is the test-time entry point over the same code.
func (s *Sim) CheckRoutingLoops() error {
	if s.Cfg.Protocol != forward.KindProactive {
		return nil
	}
	var errs []error
	for _, v := range health.RouteFaults(s.healthSource()) {
		errs = append(errs, errors.New(v.Detail))
	}
	return errors.Join(errs...)
}
