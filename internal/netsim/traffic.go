package netsim

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/forward"
	"repro/internal/icn"
	"repro/internal/metrics"
	"repro/internal/packet"
)

// TrafficStats accumulates the outcome of a generated workload.
type TrafficStats struct {
	Offered   int
	Accepted  int // Send calls that did not error (e.g. had a route)
	Delivered int
	// Latencies holds end-to-end delivery latencies in delivery order.
	// Only MergeStats fills it, expanding what lat records; the stats a
	// generator returns leave it nil.
	Latencies []time.Duration
	lat       latencyRuns
	// open is StartFlow's record of the sends still unanswered, in send
	// order: at most flowHorizon, since a send flowHorizon tags back is
	// forgotten.
	open []openSend
}

// openSend is one accepted send awaiting its delivery.
type openSend struct {
	tag uint32
	at  int64 // send instant as UnixNano
}

// flowHorizon is how many sends back StartFlow still matches a delivery
// to its send. A datagram not delivered within flowHorizon later sends of
// its flow is forgotten, so a lost one is held that long and no longer.
// The longest lag any test, table or benchmark run shows is 122 sends (a
// 1 s flow behind two minutes of queueing).
const flowHorizon = 256

// latencyRuns records latencies as runs of equal values, in delivery
// order: buf holds the closed runs as uvarint (latency, count) pairs and
// the open run is (cur, n). Virtual-time latencies repeat (a seed-1
// mesh_secure run forms 339 runs of 55,656 deliveries), and a run of one
// costs at most 8 B for a latency in [0, 2^49) ns, what a []time.Duration
// pays for every delivery.
type latencyRuns struct {
	buf []byte
	cur time.Duration
	n   int
}

// add appends count deliveries of latency lat.
func (r *latencyRuns) add(lat time.Duration, count int) {
	if r.n > 0 && lat != r.cur {
		r.buf = binary.AppendUvarint(binary.AppendUvarint(r.buf, uint64(r.cur)), uint64(r.n))
		r.n = 0
	}
	r.cur = lat
	r.n += count
}

// each calls fn for every run in order, the open one last.
func (r *latencyRuns) each(fn func(lat time.Duration, count int)) {
	for b := r.buf; len(b) > 0; {
		lat, n := binary.Uvarint(b)
		count, m := binary.Uvarint(b[n:])
		if n <= 0 || m <= 0 {
			panic("netsim: truncated latency runs")
		}
		fn(time.Duration(lat), int(count))
		b = b[n+m:]
	}
	if r.n > 0 {
		fn(r.cur, r.n)
	}
}

// delivered records one delivery of latency lat.
func (t *TrafficStats) delivered(lat time.Duration) {
	t.Delivered++
	t.lat.add(lat, 1)
}

// DeliveryRatio is Delivered / Offered (0 with no offered traffic).
func (t *TrafficStats) DeliveryRatio() float64 {
	if t.Offered == 0 {
		return 0
	}
	return float64(t.Delivered) / float64(t.Offered)
}

// MeanLatency returns the average delivery latency, or 0 with none.
func (t *TrafficStats) MeanLatency() time.Duration {
	var sum time.Duration
	total := 0
	t.lat.each(func(lat time.Duration, count int) {
		sum += lat * time.Duration(count)
		total += count
	})
	if total == 0 {
		return 0
	}
	return sum / time.Duration(total)
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

// flow is one StartFlow flow's live state: its stats, the tag of its next
// send, and the sim-wide instruments it feeds, each looked up by name on
// its first use.
type flow struct {
	stats                        *TrafficStats
	src, dst                     *Handle
	seq                          uint32
	offered, accepted, delivered *metrics.Counter
	latency                      *metrics.Histogram
}

// counter returns *c, looking the named counter up on first use.
func (s *Sim) counter(c **metrics.Counter, name string) *metrics.Counter {
	if *c == nil {
		*c = s.reg.Counter(name)
	}
	return *c
}

// StartFlow schedules the flow's sends and tracks outcomes into the
// returned stats. Payloads carry a sequence tag so deliveries are matched
// to sends, within flowHorizon of them; latency is measured
// send-to-deliver in virtual time. The first flow into a destination
// chains one dispatcher onto its OnMessage; it hands each delivery to the
// flows from the message's source, in the order they were started.
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
	fl := &flow{stats: &TrafficStats{}, src: s.handles[f.From], dst: s.handles[f.To]}
	stats, src, dst := fl.stats, fl.src, fl.dst
	if dst.flows == nil {
		dst.flows = make(map[packet.Address][]*flow)
		prevOnMessage := dst.OnMessage
		dst.OnMessage = func(msg core.AppMessage) {
			if prevOnMessage != nil {
				prevOnMessage(msg)
			}
			for _, fl := range dst.flows[msg.From] {
				s.flowDelivered(fl, msg)
			}
		}
	}
	dst.flows[src.Addr] = append(dst.flows[src.Addr], fl)

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
		tag := fl.seq
		fl.seq++
		payload[0], payload[1], payload[2], payload[3] =
			byte(tag>>24), byte(tag>>16), byte(tag>>8), byte(tag)
		stats.Offered++
		s.counter(&fl.offered, "flows.offered").Inc()
		// The send flowHorizon tags back is forgotten before this one,
		// so no delivery can match it any more.
		if len(stats.open) > 0 && tag-stats.open[0].tag >= flowHorizon {
			stats.open = slices.Delete(stats.open, 0, 1)
		}
		if err := src.Proto.Send(dst.Addr, payload); err == nil {
			stats.Accepted++
			s.counter(&fl.accepted, "flows.accepted").Inc()
			stats.open = append(stats.open, openSend{tag, s.Sched.Now().UnixNano()})
		}
		if f.Count == 0 || stats.Offered < f.Count {
			arm()
		}
	}
	arm()
	return stats, nil
}

// flowDelivered matches a delivery from fl's source to the send its tag
// names and records it.
func (s *Sim) flowDelivered(fl *flow, msg core.AppMessage) {
	if len(msg.Payload) < 4 {
		return
	}
	stats := fl.stats
	tag := uint32(msg.Payload[0])<<24 | uint32(msg.Payload[1])<<16 |
		uint32(msg.Payload[2])<<8 | uint32(msg.Payload[3])
	// Answers mostly come for recent sends, which sit at the back.
	i := len(stats.open) - 1
	for i >= 0 && stats.open[i].tag != tag {
		i--
	}
	if i < 0 {
		return // never sent, refused, forgotten or answered
	}
	lat := time.Duration(msg.At.UnixNano() - stats.open[i].at)
	stats.open = slices.Delete(stats.open, i, i+1)
	stats.delivered(lat)
	s.counter(&fl.delivered, "flows.delivered").Inc()
	if fl.latency == nil {
		fl.latency = s.reg.Histogram("e2e.latency_ms")
	}
	fl.latency.ObserveDuration(lat)
	if s.latencyBound > 0 && lat > s.latencyBound {
		s.Health.LateFlow(fl.src.Addr, fl.dst.Addr, lat, s.latencyBound)
	}
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
			stats.delivered(msg.At.Sub(at))
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

// MergeStats folds many per-flow stats into one: counts add, and
// Latencies lists every flow's latencies in delivery order, flow by flow.
func MergeStats(all []*TrafficStats) *TrafficStats {
	total := &TrafficStats{}
	for _, st := range all {
		if st == nil {
			continue
		}
		total.Offered += st.Offered
		total.Accepted += st.Accepted
		total.Delivered += st.Delivered
		st.lat.each(total.lat.add)
	}
	total.lat.each(func(lat time.Duration, count int) {
		for ; count > 0; count-- {
			total.Latencies = append(total.Latencies, lat)
		}
	})
	return total
}
