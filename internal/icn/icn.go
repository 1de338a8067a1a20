// Package icn implements a named-data (ICN) pub-sub forwarding strategy
// with in-mesh caching, after the Long-Range ICN line of work: consumers
// express interests in content NAMES rather than node addresses, the
// interest floods hop by hop leaving breadcrumbs in a Pending Interest
// Table (PIT), and the producer — or ANY intermediate node holding the
// content in its content store — answers with a named-data packet that
// retraces the breadcrumbs, being cached at every hop it crosses.
//
// Two mechanisms give the strategy its airtime win on many-reader
// workloads:
//
//   - in-mesh caching: a content store (LRU, bounded by bytes) at every
//     node answers repeat interests locally, cutting the round trip to
//     the producer — and the airtime of every hop it would have crossed;
//   - interest aggregation: while an interest for a name is pending, further
//     interests for the same name add a breadcrumb but do NOT re-flood,
//     collapsing N concurrent readers into one upstream round trip.
//
// The engine is host-driven exactly like core.Node: no I/O, no
// goroutines, every simulation bit-for-bit reproducible. It implements
// the forwarding-strategy API (see internal/forward); the Strategy
// Send(dst, payload) surface maps to Express(string(payload)) so generic
// traffic harnesses can drive it, with dst advisory.
package icn

import (
	"bytes"
	"container/list"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/forward"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/span"
	"repro/internal/trace"
)

// Errors returned by the API.
var (
	ErrStopped = errors.New("icn: node is stopped")
	ErrBadName = errors.New("icn: bad content name")
)

// Bounds every program runs at one value (DESIGN.md's options policy).
const (
	// contentStoreBytes bounds the content store (sum of cached content
	// bytes, LRU eviction).
	contentStoreBytes = 4096
	// maxHops bounds interest flood propagation.
	maxHops = 16
	// pitTimeout is how long a pending interest waits for data before
	// its breadcrumbs are forgotten. It sits below the 40 s re-express
	// cadence of the pull workload (netsim.StartInterestRounds), so a lost
	// round re-floods instead of aggregating against a dead entry.
	pitTimeout = 20 * time.Second
	// rebroadcastDelay is the mean randomized hold-off before relaying an
	// interest, desynchronizing the flood.
	rebroadcastDelay = 200 * time.Millisecond
)

// nonceKey identifies one interest flood network-wide.
type nonceKey struct {
	origin packet.Address
	nonce  uint16
}

// dataKey identifies one data answer in flight: which name is being
// carried to which requester. Overhearing a frame with this key means
// somebody else is already serving that requester.
type dataKey struct {
	name   string
	origin packet.Address
}

// crumb is one PIT breadcrumb: where to send the data when it arrives.
type crumb struct {
	// downstream is the neighbor the interest arrived from (self when
	// this node expressed the interest).
	downstream packet.Address
	// origin is the requester the data packet is ultimately addressed
	// to.
	origin packet.Address
}

// pitEntry aggregates the pending interests for one name.
type pitEntry struct {
	crumbs  []crumb
	expires time.Time
	// relayed marks that this node already relayed the interest
	// upstream; aggregated interests only add crumbs.
	relayed bool
}

// csEntry is one cached content object.
type csEntry struct {
	name    string
	content []byte
	// producer is the content's origin node.
	producer packet.Address
	// hops is how far the content had traveled from the producer when
	// it was cached here — the path length a cache hit saves.
	hops uint8
	// elem is the entry's LRU list position.
	elem *list.Element
}

// Node is one ICN protocol engine.
type Node struct {
	// cfg is the node template, its Phy defaulted: the address, the radio
	// the transmit path uses and the airtime a cache hit saves is priced
	// on, and the tracer of the interest/data lifecycle.
	cfg core.Config
	// produce, when set, makes this node a producer: called with a
	// content name, it returns the content (nil = not produced here).
	produce func(name string) []byte
	env     core.Env
	reg     *metrics.Registry
	stopped bool
	addrStr string

	nextNonce uint16
	seen      forward.SeenSet[nonceKey]

	// dataSeen remembers when a data frame for (name, requester) was last
	// heard — addressed to us or overheard — so a queued answer of our own
	// for the same requester can stand down (broadcast-medium data
	// suppression).
	dataSeen forward.SeenSet[dataKey]

	pit map[string]*pitEntry

	cs      map[string]*csEntry
	csLRU   *list.List // front = most recent
	csBytes int

	tx *core.Transmitter
}

// NewNode creates an ICN node on env from cfg, the node template: the
// node reads its address, its tracer (interest/data lifecycle events and,
// when it records span segments, the SegCacheHit segment that marks
// cached replies in hop trees) and what its transmit path reads (see
// core.NewTransmitter). A non-nil produce makes the node a producer.
func NewNode(cfg core.Config, produce func(name string) []byte, env core.Env) (*Node, error) {
	reg := metrics.NewRegistry()
	tx, err := core.NewTransmitter(cfg, env, reg)
	if err != nil {
		return nil, fmt.Errorf("icn: %w", err)
	}
	cfg.Phy = cfg.EffectivePhy()
	n := &Node{
		cfg:      cfg,
		produce:  produce,
		env:      env,
		reg:      reg,
		addrStr:  cfg.Address.String(),
		seen:     forward.SeenSet[nonceKey]{Cap: 512},
		dataSeen: forward.SeenSet[dataKey]{Cap: 512},
		pit:      make(map[string]*pitEntry),
		cs:       make(map[string]*csEntry),
		csLRU:    list.New(),
		tx:       tx,
	}
	// Pre-register the icn.* schema so scrapes before traffic see zeros.
	for _, c := range []string{
		"icn.interest.expressed", "icn.interest.relayed",
		"icn.interest.aggregated", "icn.interest.duplicate",
		"icn.data.produced", "icn.data.forwarded", "icn.data.delivered",
		"icn.data.overheard", "icn.data.suppressed",
		"icn.cs.hit", "icn.cs.miss", "icn.cs.evict",
		"icn.airtime.saved_ms",
		"drop." + forward.DropTTL, "drop." + forward.DropNoPIT,
		"app.sent", "app.delivered", "fwd.frames",
		"rx.frames", "rx.corrupt", "rx.ignored",
	} {
		n.reg.Counter(c)
	}
	n.reg.Gauge("icn.cs.bytes")
	n.reg.Gauge("icn.pit.entries")
	return n, nil
}

// Metrics exposes the node's instruments.
func (n *Node) Metrics() *metrics.Registry { return n.reg }

// Start is a no-op: an ICN node is silent until an interest appears.
func (n *Node) Start() error {
	if n.stopped {
		return ErrStopped
	}
	return nil
}

// Stop silences the node.
func (n *Node) Stop() {
	n.stopped = true
	n.tx.Stop()
}

// Send maps the generic strategy surface onto Express: the payload is
// the content name, dst advisory (ICN routes by name, not address).
func (n *Node) Send(_ packet.Address, payload []byte) error {
	return n.Express(string(payload))
}

// Express broadcasts an interest in name; a full transmit queue refuses it
// with core.ErrQueueFull. The matching data arrives as an application
// delivery (Env.Deliver) with From = the producer. While an interest in
// the same name is already pending, the call aggregates instead of
// re-flooding. Content already in the local store is delivered
// synchronously.
//
// The engine does not retransmit lost interests: retry is the
// application's (re-Express) — a re-expression inside the pitTimeout
// window only aggregates.
func (n *Node) Express(name string) error {
	if n.stopped {
		return ErrStopped
	}
	if !validName(name) {
		return fmt.Errorf("%w: %d bytes (max %d)", ErrBadName, len(name), packet.MaxNameLen)
	}
	n.reg.Counter("app.sent").Inc()
	n.reg.Counter("icn.interest.expressed").Inc()

	// Producer or local cache: the content never touches the air. A local
	// content-store read is a cache hit like any other — it saves the full
	// round trip to the producer.
	if content := n.localContent(name); content != nil {
		if content.producer != n.cfg.Address {
			n.reg.Counter("icn.cs.hit").Inc()
			n.creditAirtimeSaved(content, len(name))
		}
		n.deliverContent(name, content.producer, content.content, true)
		return nil
	}
	if e, ok := n.livePIT(name); ok {
		// Already pending upstream: aggregate our own crumb.
		e.addCrumb(crumb{downstream: n.cfg.Address, origin: n.cfg.Address})
		n.reg.Counter("icn.interest.aggregated").Inc()
		return nil
	}
	nonce := n.nextNonce
	n.nextNonce++
	n.seen.Remember(nonceKey{origin: n.cfg.Address, nonce: nonce})
	if err := n.sendInterest(name, nonce, 0, n.cfg.Address, n.cfg.Address); err != nil {
		return err // refused by a full transmit queue: nothing is pending
	}
	e := n.newPIT(name)
	e.addCrumb(crumb{downstream: n.cfg.Address, origin: n.cfg.Address})
	e.relayed = true
	return nil
}

// localContent returns the node's own copy of name — produced or cached
// — touching the LRU on a cache read.
func (n *Node) localContent(name string) *csEntry {
	if n.produce != nil {
		if c := n.produce(name); c != nil {
			return &csEntry{name: name, content: c, producer: n.cfg.Address}
		}
	}
	if e, ok := n.cs[name]; ok {
		n.csLRU.MoveToFront(e.elem)
		return e
	}
	return nil
}

// livePIT returns the unexpired PIT entry for name.
func (n *Node) livePIT(name string) (*pitEntry, bool) {
	e, ok := n.pit[name]
	if !ok {
		return nil, false
	}
	if !e.expires.After(n.env.Now()) {
		delete(n.pit, name)
		n.reg.Gauge("icn.pit.entries").Set(float64(len(n.pit)))
		return nil, false
	}
	return e, true
}

func (n *Node) newPIT(name string) *pitEntry {
	e := &pitEntry{expires: n.env.Now().Add(pitTimeout)}
	n.pit[name] = e
	n.reg.Gauge("icn.pit.entries").Set(float64(len(n.pit)))
	return e
}

func (e *pitEntry) addCrumb(c crumb) {
	for _, have := range e.crumbs {
		if have == c {
			return
		}
	}
	e.crumbs = append(e.crumbs, c)
}

// sendInterest enqueues one interest frame. origin is preserved across
// relays (like an RREQ flood); prevHop is this hop's sender.
func (n *Node) sendInterest(name string, nonce uint16, hops uint8, origin, prevHop packet.Address) error {
	payload := packet.Breadcrumb{ID: nonce, Hops: hops, PrevHop: prevHop}.
		Append(make([]byte, 0, packet.BreadcrumbLen+len(name)))
	payload = append(payload, name...)
	p := &packet.Packet{
		Dst: packet.Broadcast, Src: origin, Type: packet.TypeInterest, Payload: payload,
	}
	if n.cfg.Tracer.Enabled() {
		n.cfg.Tracer.EmitPacket(n.env.Now(), n.addrStr, trace.KindInterest,
			trace.TraceID(p.TraceID()), "interest %q nonce=%d hops=%d", name, nonce, hops)
	}
	return n.tx.Enqueue(p, 0)
}

// sendData enqueues one named-data frame carrying content toward origin
// via the downstream breadcrumb.
func (n *Node) sendData(name string, content []byte, producer packet.Address, hops uint8, origin, downstream packet.Address) {
	payload := packet.NamedData{Producer: producer, Hops: hops, Name: name, Content: content}.
		Append(make([]byte, 0, packet.NamedDataHeaderLen+len(name)+len(content)))
	p := &packet.Packet{
		Dst: origin, Src: n.cfg.Address, Type: packet.TypeNamedData,
		Via: downstream, Payload: payload,
	}
	if n.cfg.Tracer.Enabled() {
		n.cfg.Tracer.EmitPacket(n.env.Now(), n.addrStr, trace.KindData,
			trace.TraceID(p.TraceID()), "data %q -> %v via %v (%d bytes, hops=%d)",
			name, origin, downstream, len(content), hops)
	}
	// Half the interest jitter: a producer or cache answering the instant
	// an interest lands collides with that interest's relays still
	// propagating outward (classic hidden-terminal loss on dense
	// topologies), so data transmissions hold off briefly too — but
	// strictly less than a relay hold-off (see handleInterest), so a
	// nearby answer wins the channel before the flood grows.
	delay := time.Duration((0.5 + n.env.Rand()) * float64(rebroadcastDelay) / 2)
	scheduledAt := n.env.Now()
	var answer func()
	answer = func() {
		if n.stopped {
			return
		}
		// Somebody else's answer to the same requester crossed the air
		// during our hold-off: transmitting ours too would only collide.
		if at, ok := n.dataSeen.At(dataKey{name: name, origin: origin}); ok && at.After(scheduledAt) {
			n.reg.Counter("icn.data.suppressed").Inc()
			return
		}
		// Another answer may be on the air this instant (holders of the
		// content that heard one interest pick hold-offs inside one data
		// airtime of each other): hear it out, then look again, for as
		// long as the requester's PIT entry can be alive.
		if busy, err := n.env.ChannelBusy(); err == nil && busy && n.env.Now().Sub(scheduledAt) < pitTimeout {
			n.env.Schedule(delay, answer)
			return
		}
		_ = n.tx.Enqueue(p, 0) // a refusal is counted as drop.queue_full
	}
	n.env.Schedule(delay, answer)
}

// HandleFrame processes one received frame.
func (n *Node) HandleFrame(frame []byte, _ core.RxInfo) {
	if n.stopped {
		return
	}
	n.reg.Counter("rx.frames").Inc()
	p, err := packet.Unmarshal(frame)
	if err != nil {
		n.reg.Counter("rx.corrupt").Inc()
		return
	}
	if p.Src == n.cfg.Address {
		return
	}
	switch p.Type {
	case packet.TypeInterest:
		n.handleInterest(p)
	case packet.TypeNamedData:
		// Frames retracing somebody else's breadcrumbs are still heard on
		// a broadcast medium: overhearing fills the content store and
		// stands down redundant relays and answers of our own.
		n.handleData(p, p.Via != n.cfg.Address && p.Via != packet.Broadcast)
	default:
		n.reg.Counter("rx.ignored").Inc()
	}
}

// handleInterest runs the ICN forwarding plane for one interest: dedup,
// producer/cache answer, PIT aggregation, or relay.
func (n *Node) handleInterest(p *packet.Packet) {
	b, tail, err := packet.UnmarshalBreadcrumb(p.Payload)
	name := string(tail)
	if err != nil || !validName(name) {
		n.reg.Counter("rx.corrupt").Inc()
		return
	}
	key := nonceKey{origin: p.Src, nonce: b.ID}
	if n.seen.Remember(key) {
		n.reg.Counter("icn.interest.duplicate").Inc()
		return
	}

	// Producer or cache answer: the interest stops here.
	if own := n.localContent(name); own != nil {
		fromCache := own.producer != n.cfg.Address
		if fromCache {
			n.cacheHit(p, name, own)
		} else {
			n.reg.Counter("icn.data.produced").Inc()
		}
		n.sendData(name, own.content, own.producer, own.hops, p.Src, b.PrevHop)
		return
	}
	n.reg.Counter("icn.cs.miss").Inc()

	c := crumb{downstream: b.PrevHop, origin: p.Src}
	if e, ok := n.livePIT(name); ok {
		// Aggregation: the upstream round trip is already in flight; this
		// reader just adds a breadcrumb.
		e.addCrumb(c)
		n.reg.Counter("icn.interest.aggregated").Inc()
		if n.cfg.Tracer.Enabled() {
			n.cfg.Tracer.EmitPacket(n.env.Now(), n.addrStr, trace.KindInterest,
				trace.TraceID(p.TraceID()), "aggregated interest %q from %v", name, p.Src)
		}
		return
	}
	if b.Hops+1 >= maxHops {
		n.reg.Counter("drop." + forward.DropTTL).Inc()
		return
	}
	e := n.newPIT(name)
	e.addCrumb(c)
	e.relayed = true
	// Relay after a randomized hold-off, preserving the originator. The
	// hold-off is deliberately LONGER than a cache or producer answer
	// delay (see sendData): a nearby copy of the content must win the
	// channel before the flood expands another ring — and a relay whose
	// content arrives (or is overheard) during the hold-off is cancelled
	// outright.
	delay := time.Duration((1.5 + n.env.Rand()) * float64(rebroadcastDelay))
	n.reg.Counter("icn.interest.relayed").Inc()
	n.scheduleInterest(name, b.ID, b.Hops+1, p.Src, delay)
}

// scheduleInterest defers a relayed interest (jittered flood).
func (n *Node) scheduleInterest(name string, nonce uint16, hops uint8, origin packet.Address, delay time.Duration) {
	n.env.Schedule(delay, func() {
		if n.stopped {
			return
		}
		// The data may have arrived during the hold-off; relaying then
		// would re-flood for nothing.
		if _, ok := n.cs[name]; ok {
			return
		}
		_ = n.sendInterest(name, nonce, hops, origin, n.cfg.Address) // a refusal is counted as drop.queue_full
	})
}

// creditAirtimeSaved estimates the airtime a cache hit avoided: the
// interest and data legs that will NOT cross the hops between this cache
// and the producer.
func (n *Node) creditAirtimeSaved(e *csEntry, nameLen int) {
	if e.hops == 0 {
		return
	}
	wire := packet.HeaderLen(packet.TypeNamedData) + packet.NamedDataHeaderLen + nameLen + len(e.content)
	if wire > packet.MaxFrameLen {
		wire = packet.MaxFrameLen
	}
	air, err := n.cfg.Phy.Airtime(wire)
	if err != nil {
		return
	}
	saved := 2 * time.Duration(e.hops) * air
	n.reg.Counter("icn.airtime.saved_ms").Add(uint64(saved.Milliseconds()))
}

// handleData caches arriving content, delivers it when we requested it,
// and retraces PIT breadcrumbs otherwise. With overheard set, the frame
// was addressed through some other node: we still cache the content
// (opportunistic fill — also cancelling any pending relay of the
// matching interest) and satisfy our PIT, but breadcrumbs whose
// requester the overheard frame is already travelling to are dropped
// silently rather than served twice.
func (n *Node) handleData(p *packet.Packet, overheard bool) {
	d, err := packet.UnmarshalNamedData(p.Payload)
	if err != nil {
		n.reg.Counter("rx.corrupt").Inc()
		return
	}
	name, producer, hops := d.Name, d.Producer, d.Hops
	content := append([]byte(nil), d.Content...)

	// Remember the answer in flight so a queued answer of our own for the
	// same requester stands down (see sendData).
	n.dataSeen.Mark(dataKey{name: name, origin: p.Dst}, n.env.Now())

	// Cache on path: every hop the data crosses becomes a future answer
	// point. hops+1 is the distance from the producer at THIS node.
	n.cacheContent(name, content, producer, hops+1)

	if overheard {
		n.reg.Counter("icn.data.overheard").Inc()
	}

	e, ok := n.livePIT(name)
	if !ok {
		if overheard {
			return // stray overhears carry no drop accounting
		}
		// No breadcrumbs (expired or never ours): a stray.
		if p.Dst == n.cfg.Address {
			// Addressed to us anyway (direct reply beat PIT expiry).
			n.deliverContent(name, producer, content, false)
			return
		}
		n.reg.Counter("drop." + forward.DropNoPIT).Inc()
		return
	}
	delete(n.pit, name)
	n.reg.Gauge("icn.pit.entries").Set(float64(len(n.pit)))
	for _, c := range e.crumbs {
		if overheard && c.origin == p.Dst && c.downstream != n.cfg.Address {
			// The overheard frame is already on its way to this requester
			// along another path; forwarding our copy would duplicate it.
			continue
		}
		if c.downstream == n.cfg.Address {
			n.deliverContent(name, producer, content, false)
			continue
		}
		n.sendData(name, content, producer, hops+1, c.origin, c.downstream)
		n.reg.Counter("icn.data.forwarded").Inc()
		n.reg.Counter("fwd.frames").Inc()
	}
}

// cacheContent inserts (or refreshes) name in the content store, LRU-
// evicting past the byte bound.
func (n *Node) cacheContent(name string, content []byte, producer packet.Address, hops uint8) {
	if len(content) > contentStoreBytes {
		return
	}
	if e, ok := n.cs[name]; ok {
		n.csBytes += len(content) - len(e.content)
		e.content = content
		e.producer = producer
		e.hops = hops
		n.csLRU.MoveToFront(e.elem)
	} else {
		e := &csEntry{name: name, content: content, producer: producer, hops: hops}
		e.elem = n.csLRU.PushFront(e)
		n.cs[name] = e
		n.csBytes += len(content)
	}
	for n.csBytes > contentStoreBytes {
		back := n.csLRU.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*csEntry)
		n.csLRU.Remove(back)
		delete(n.cs, victim.name)
		n.csBytes -= len(victim.content)
		n.reg.Counter("icn.cs.evict").Inc()
	}
	n.reg.Gauge("icn.cs.bytes").Set(float64(n.csBytes))
}

// cacheHit accounts an interest answered from the content store: the
// counters, the span segment and the narrative event.
func (n *Node) cacheHit(p *packet.Packet, name string, e *csEntry) {
	n.reg.Counter("icn.cs.hit").Inc()
	n.creditAirtimeSaved(e, len(name))
	t := n.cfg.Tracer
	if t == nil {
		return
	}
	id := trace.TraceID(p.TraceID())
	t.EmitSeg(n.env.Now(), n.addrStr, trace.KindSpan, id, span.SegCacheHit.String(), 0, name)
	if t.Enabled() {
		t.EmitPacket(n.env.Now(), n.addrStr, trace.KindInterest,
			id, "cache hit %q for %v (saves %d hops)", name, p.Src, e.hops)
	}
}

// deliverContent hands named content to the application. The payload is
// "name\x00content" so the consumer can tell which name resolved.
func (n *Node) deliverContent(name string, producer packet.Address, content []byte, local bool) {
	n.reg.Counter("icn.data.delivered").Inc()
	n.reg.Counter("app.delivered").Inc()
	payload := make([]byte, 0, len(name)+1+len(content))
	payload = append(payload, name...)
	payload = append(payload, 0)
	payload = append(payload, content...)
	if n.cfg.Tracer.Enabled() {
		src := "mesh"
		if local {
			src = "local"
		}
		n.cfg.Tracer.Emit(n.env.Now(), n.addrStr, trace.KindData,
			"delivered %q from %v (%s, %d bytes)", name, producer, src, len(content))
	}
	n.env.Deliver(core.AppMessage{
		From:    producer,
		To:      n.cfg.Address,
		Payload: payload,
		At:      n.env.Now(),
	})
}

// SplitDelivery splits an application delivery's payload, as
// deliverContent writes it, into the content name and the content.
func SplitDelivery(payload []byte) (name string, content []byte, ok bool) {
	head, content, ok := bytes.Cut(payload, []byte{0})
	return string(head), content, ok
}

// validName is the interest name rule: 1..packet.MaxNameLen bytes.
func validName(name string) bool {
	return len(name) > 0 && len(name) <= packet.MaxNameLen
}

// HandleTxDone resumes the transmit queue.
func (n *Node) HandleTxDone() { n.tx.TxDone() }
