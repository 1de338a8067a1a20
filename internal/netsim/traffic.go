package netsim

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/forward"
	"repro/internal/icn"
)

// TrafficStats accumulates the outcome of a generated workload.
type TrafficStats struct {
	Offered   int
	Accepted  int // Send calls that did not error (e.g. had a route)
	Delivered int
	// Latencies holds end-to-end delivery latencies.
	Latencies []time.Duration
	// sent is StartFlow's record of the flow's last flowHorizon tags:
	// at tag mod flowHorizon, the send instant as UnixNano, or unsent
	// once delivered or when the send was refused.
	sent []int64
}

// flowHorizon is how many sends back StartFlow still matches a delivery
// to its send. A datagram not delivered within flowHorizon later sends of
// its flow is forgotten, so a lost one is held that long and no longer.
// The longest lag any test, table or benchmark run shows is 122 sends (a
// 1 s flow behind two minutes of queueing).
const flowHorizon = 256

// unsent marks a sent slot with no datagram awaiting delivery.
const unsent = math.MinInt64

// DeliveryRatio is Delivered / Offered (0 with no offered traffic).
func (t *TrafficStats) DeliveryRatio() float64 {
	if t.Offered == 0 {
		return 0
	}
	return float64(t.Delivered) / float64(t.Offered)
}

// MeanLatency returns the average delivery latency, or 0 with none.
func (t *TrafficStats) MeanLatency() time.Duration {
	if len(t.Latencies) == 0 {
		return 0
	}
	var sum time.Duration
	for _, l := range t.Latencies {
		sum += l
	}
	return sum / time.Duration(len(t.Latencies))
}

// Flow describes one unicast traffic flow.
type Flow struct {
	From, To int // node indices
	// Payload is the datagram size in bytes.
	Payload int
	// Interval is the mean inter-send gap.
	Interval time.Duration
	// Count is how many datagrams to send; 0 means until the generator
	// is not re-armed (bounded by the run duration).
	Count int
	// Poisson draws exponential gaps instead of fixed ones.
	Poisson bool
}

// StartFlow schedules the flow's sends and tracks outcomes into the
// returned stats. Payloads carry a sequence tag so deliveries are matched
// to sends, within flowHorizon of them; latency is measured
// send-to-deliver in virtual time.
func (s *Sim) StartFlow(f Flow) (*TrafficStats, error) {
	if f.From < 0 || f.From >= s.N() || f.To < 0 || f.To >= s.N() || f.From == f.To {
		return nil, fmt.Errorf("netsim: flow endpoints %d->%d invalid", f.From, f.To)
	}
	if f.Payload < 8 {
		f.Payload = 8 // room for the sequence tag
	}
	if f.Interval <= 0 {
		return nil, fmt.Errorf("netsim: flow interval must be positive")
	}
	stats := &TrafficStats{}
	src := s.handles[f.From]
	dst := s.handles[f.To]
	var seq uint32 // the next send's tag

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
			return // never sent, or forgotten
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
			// Exponential with mean Interval, clamped to avoid zero gaps.
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
			// Crashed by the fault plan: skip this send but keep the
			// generator armed — the node may restart.
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
		// The tag flowHorizon sends back is forgotten before the send,
		// so no delivery can match it to this slot.
		if len(stats.sent) < flowHorizon {
			stats.sent = append(stats.sent, unsent) // tag == len(stats.sent)
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

// StartManyToOne starts one Poisson flow from every other node to node 0,
// the telemetry pattern from the paper's motivation. It returns
// per-source stats indexed by node.
func (s *Sim) StartManyToOne(payload int, interval time.Duration) ([]*TrafficStats, error) {
	out := make([]*TrafficStats, s.N())
	for i := 1; i < s.N(); i++ {
		st, err := s.StartFlow(Flow{
			From: i, To: 0, Payload: payload, Interval: interval, Poisson: true,
		})
		if err != nil {
			return nil, err
		}
		out[i] = st
	}
	return out, nil
}

// StartPairs starts one Poisson flow of 24-byte datagrams from every node
// i to node (i+n/2) mod n — the fixed unicast pairs the evaluation and
// meshsim load a mesh with. It returns per-source stats indexed by node.
func (s *Sim) StartPairs(interval time.Duration) ([]*TrafficStats, error) {
	n := s.N()
	out := make([]*TrafficStats, n)
	for i := range out {
		st, err := s.StartFlow(Flow{
			From: i, To: (i + n/2) % n, Payload: 24, Interval: interval, Poisson: true,
		})
		if err != nil {
			return nil, err
		}
		out[i] = st
	}
	return out, nil
}

// StartInterestRounds drives the pull equivalent of the push patterns
// under the ICN strategy: every period, each node but the producer (node
// 0, where both programs publish) expresses interest in the round's shared name (prefix + round number)
// at a staggered offset, re-expressing up to twice (40 s apart) while
// unsatisfied — the strategy never retransmits, so retry is the
// application's job. Expressions that would fall at or past duration are
// not scheduled. Offered counts one per (consumer, round); latency runs
// from a consumer's first expression to its first delivery of that round.
func (s *Sim) StartInterestRounds(prefix string, period, duration time.Duration) (*TrafficStats, error) {
	if s.Cfg.Protocol != forward.KindICN {
		return nil, fmt.Errorf("netsim: interest rounds need the %s strategy", forward.KindICN)
	}
	if period <= 0 {
		return nil, fmt.Errorf("netsim: interest round period must be positive")
	}
	stats := &TrafficStats{}
	type key struct{ consumer, round int }
	exprAt := make(map[key]time.Time)
	satisfied := make(map[key]bool)

	var consumers []*Handle
	for _, h := range s.handles {
		if h.Index == 0 {
			continue
		}
		consumers = append(consumers, h)
		prev := h.OnMessage
		h.OnMessage = func(msg core.AppMessage) {
			if prev != nil {
				prev(msg)
			}
			name, _, ok := icn.SplitDelivery(msg.Payload)
			if !ok {
				return
			}
			tail, ok := strings.CutPrefix(name, prefix)
			if !ok {
				return
			}
			round, err := strconv.Atoi(tail)
			if err != nil {
				return
			}
			k := key{h.Index, round}
			at, ok := exprAt[k]
			if !ok || satisfied[k] {
				return
			}
			satisfied[k] = true
			stats.Delivered++
			stats.Latencies = append(stats.Latencies, msg.At.Sub(at))
		}
	}

	for r := 0; r < int(duration/period); r++ {
		name := prefix + strconv.Itoa(r)
		for ci, h := range consumers {
			k := key{h.Index, r}
			base := time.Duration(r)*period + time.Second +
				time.Duration(ci)*1700*time.Millisecond
			for attempt := 0; attempt < 3; attempt++ {
				at := base + time.Duration(attempt)*40*time.Second
				if at >= duration {
					continue
				}
				s.Sched.MustAfter(at, func() {
					if satisfied[k] {
						return
					}
					if _, ok := exprAt[k]; !ok {
						exprAt[k] = s.Sched.Now()
						stats.Offered++
					}
					if h.ICN.Express(name) == nil {
						stats.Accepted++
					}
				})
			}
		}
	}
	return stats, nil
}

// MergeStats folds many per-flow stats into one.
func MergeStats(all []*TrafficStats) *TrafficStats {
	total := &TrafficStats{}
	for _, st := range all {
		if st == nil {
			continue
		}
		total.Offered += st.Offered
		total.Accepted += st.Accepted
		total.Delivered += st.Delivered
		total.Latencies = append(total.Latencies, st.Latencies...)
	}
	return total
}
