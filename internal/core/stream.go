package core

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/packet"
	"repro/internal/span"
	"repro/internal/trace"
)

// Reliable large-payload transport.
//
// Payloads that fit one frame travel as a single DATA_ACK packet with an
// end-to-end ACK and retransmission. Larger payloads are chunked into a
// stream: the sender opens it with SYNC (Number = chunk count, payload =
// total byte length), the receiver acknowledges, and XL_DATA chunks flow
// under a go-back-N window with cumulative ACKs (window 1 reproduces the
// prototype's stop-and-wait). A receiver that observes a sequence gap
// requests the missing chunk with LOST. Senders retransmit on timeout and
// give up after StreamMaxRetries rounds.

// maxChunk is the data bytes per XL_DATA packet on a plaintext mesh.
var maxChunk = packet.MaxPayload(packet.TypeXLData)

// chunkSize is the data bytes per XL_DATA packet for this node's
// security mode. Both ends compute the same value because security is a
// network-wide property (a mixed mesh cannot interoperate anyway).
func (n *Node) chunkSize() int { return n.maxPayloadFor(packet.TypeXLData) }

// outMode selects the sender-side reliability machinery.
type outMode int

const (
	modeSingle outMode = iota + 1 // one DATA_ACK packet
	modeStream                    // SYNC + XL_DATA chunks
)

// outStream is the sender-side state of one reliable transfer.
type outStream struct {
	id     uint8
	dst    packet.Address
	mode   outMode
	chunks [][]byte // 1-based: chunk k is chunks[k-1]
	total  int      // total payload bytes

	synced    bool // SYNC acknowledged (modeStream)
	base      int  // lowest unacknowledged chunk (1-based)
	next      int  // next chunk index to transmit
	maxSent   int  // highest chunk index ever transmitted
	rounds    int  // consecutive timeout rounds
	maxRounds int  // worst consecutive-timeout run over the stream's life
	retrans   int  // total chunk retransmissions

	startedAt   time.Time
	retryCancel func()
	fillCancel  func()
}

// inKey identifies an incoming transfer.
type inKey struct {
	src packet.Address
	id  uint8
}

// inStream is the receiver-side state of one reliable transfer.
type inStream struct {
	total        int // expected chunk count
	totalBytes   int // expected payload bytes (from SYNC)
	chunks       [][]byte
	nextExpected int // lowest missing chunk (1-based)
	done         bool
	lastLost     time.Time
	gcCancel     func()
	secured      bool   // the opening SYNC arrived sealed
	counter      uint32 // the opening SYNC's origin frame counter
}

// SendReliable transfers payload to dst with end-to-end acknowledgment and
// retransmission, returning the stream id. Completion or failure is
// reported asynchronously through Env.StreamDone.
func (n *Node) SendReliable(dst packet.Address, payload []byte) (uint8, error) {
	if n.stopped {
		return 0, ErrStopped
	}
	if dst == packet.Broadcast {
		return 0, fmt.Errorf("core: reliable transfer to broadcast is not defined")
	}
	if len(payload) == 0 {
		return 0, fmt.Errorf("core: reliable transfer of empty payload")
	}
	if max := 65535 * n.chunkSize(); len(payload) > max {
		return 0, fmt.Errorf("%w: %d > %d bytes", ErrTooLarge, len(payload), max)
	}
	if len(n.outStreams) >= maxOutStreams {
		return 0, fmt.Errorf("%w: %d active", ErrBusyStream, len(n.outStreams))
	}
	id, err := n.allocStreamID()
	if err != nil {
		return 0, err
	}

	s := &outStream{
		id:        id,
		dst:       dst,
		total:     len(payload),
		startedAt: n.env.Now(),
		base:      1,
		next:      1,
	}
	if len(payload) <= n.maxPayloadFor(packet.TypeDataAck) {
		s.mode = modeSingle
		s.synced = true
		s.chunks = [][]byte{append([]byte(nil), payload...)}
	} else {
		s.mode = modeStream
		cs := n.chunkSize()
		for off := 0; off < len(payload); off += cs {
			end := off + cs
			if end > len(payload) {
				end = len(payload)
			}
			s.chunks = append(s.chunks, append([]byte(nil), payload[off:end]...))
		}
	}
	n.outStreams[id] = s
	n.reg.Counter("stream.opened").Inc()

	if s.mode == modeSingle {
		if err := n.sendChunk(s, 1); err != nil {
			delete(n.outStreams, id)
			return 0, err
		}
	} else {
		if err := n.sendSync(s); err != nil {
			delete(n.outStreams, id)
			return 0, err
		}
	}
	n.armRetry(s)
	return id, nil
}

// allocStreamID returns an unused stream sequence id.
func (n *Node) allocStreamID() (uint8, error) {
	for i := 0; i < 256; i++ {
		id := n.nextSeqID
		n.nextSeqID++
		if _, busy := n.outStreams[id]; !busy {
			return id, nil
		}
	}
	return 0, ErrBusyStream
}

// sendSync emits the stream-open packet carrying the chunk count and the
// total byte length.
func (n *Node) sendSync(s *outStream) error {
	var total [4]byte
	binary.BigEndian.PutUint32(total[:], uint32(s.total))
	p := &packet.Packet{
		Dst:     s.dst,
		Src:     n.cfg.Address,
		Type:    packet.TypeSync,
		SeqID:   s.id,
		Number:  uint16(len(s.chunks)),
		Payload: total[:],
	}
	return n.route(p)
}

// sendChunk emits chunk k of the stream. Retransmissions are recognized by
// the high-water mark: any chunk at or below it has been sent before.
func (n *Node) sendChunk(s *outStream, k int) error {
	typ := packet.TypeXLData
	if s.mode == modeSingle {
		typ = packet.TypeDataAck
	}
	p := &packet.Packet{
		Dst:     s.dst,
		Src:     n.cfg.Address,
		Type:    typ,
		SeqID:   s.id,
		Number:  uint16(k),
		Payload: s.chunks[k-1],
	}
	if err := n.route(p); err != nil {
		return err
	}
	if k <= s.maxSent {
		s.retrans++
		n.segment(p, span.SegRetransmit, 0, p.Type.String())
	} else {
		s.maxSent = k
	}
	return nil
}

// fillWindow transmits chunks up to the configured window. With
// StreamPacing > 0, consecutive chunks are spaced out so a windowed
// transfer does not collide with its own forwarding on a half-duplex
// multi-hop path (the A3 ablation's subject).
func (n *Node) fillWindow(s *outStream) {
	if s.fillCancel != nil {
		s.fillCancel()
		s.fillCancel = nil
	}
	n.fillStep(s)
}

// fillStep sends the next window chunk and, when pacing, schedules the
// one after it.
func (n *Node) fillStep(s *outStream) {
	for s.next < s.base+n.cfg.StreamWindow && s.next <= len(s.chunks) {
		k := s.next
		s.next++
		if err := n.sendChunk(s, k); err != nil {
			// No route right now; the retry timer re-attempts after the
			// mesh re-converges.
			return
		}
		if n.cfg.StreamPacing > 0 &&
			s.next < s.base+n.cfg.StreamWindow && s.next <= len(s.chunks) {
			s.fillCancel = n.env.Schedule(n.cfg.StreamPacing, func() {
				if n.outStreams[s.id] == s {
					s.fillCancel = nil
					n.fillStep(s)
				}
			})
			return
		}
	}
}

// streamRetryCapFactor bounds the backed-off retransmission timeout at
// this multiple of StreamRetry.
const streamRetryCapFactor = 8

// backedOff returns the un-jittered retransmission timeout for the given
// number of consecutive unacknowledged rounds: StreamRetry grown by
// streamBackoff per round, capped at streamRetryCapFactor x StreamRetry.
func (n *Node) backedOff(rounds int) time.Duration {
	d := n.cfg.StreamRetry
	limit := streamRetryCapFactor * n.cfg.StreamRetry
	for i := 0; i < rounds && d < limit; i++ {
		d *= streamBackoff
	}
	if d > limit {
		d = limit
	}
	return d
}

// retryDelay returns the retransmission timeout for the given number of
// consecutive unacknowledged rounds, jittered ±10% so retransmissions
// from nodes that lost the same frame do not stay synchronized.
func (n *Node) retryDelay(rounds int) time.Duration {
	return time.Duration(float64(n.backedOff(rounds)) * (0.9 + 0.2*n.env.Rand()))
}

// retryBudget is the un-jittered time a stream can spend in timeouts
// before failing: the sum of every round's backed-off delay.
func (n *Node) retryBudget() time.Duration {
	var sum time.Duration
	for r := 0; r <= n.cfg.StreamMaxRetries; r++ {
		sum += n.backedOff(r)
	}
	return sum
}

// armRetry (re)schedules the stream's retransmission timer with the
// current round's backed-off delay.
func (n *Node) armRetry(s *outStream) {
	if s.retryCancel != nil {
		s.retryCancel()
	}
	s.retryCancel = n.env.Schedule(n.retryDelay(s.rounds), func() { n.retryTick(s) })
}

// retryTick fires when the stream made no acknowledged progress for a full
// retransmission timeout.
func (n *Node) retryTick(s *outStream) {
	if n.stopped || n.outStreams[s.id] != s {
		return
	}
	s.rounds++
	if s.rounds > s.maxRounds {
		s.maxRounds = s.rounds
	}
	if s.rounds > n.cfg.StreamMaxRetries {
		n.finishStream(s, fmt.Errorf("%w: %d rounds to %v", ErrStreamFailed, s.rounds-1, s.dst))
		return
	}
	n.reg.Counter("stream.timeouts").Inc()
	if !s.synced {
		if err := n.sendSync(s); err == nil {
			s.retrans++
		}
	} else {
		// Go-back-N: rewind to the lowest unacknowledged chunk.
		s.next = s.base
		n.fillWindow(s)
	}
	n.armRetry(s)
}

// finishStream reports the outcome and tears down sender state.
func (n *Node) finishStream(s *outStream, err error) {
	if s.retryCancel != nil {
		s.retryCancel()
		s.retryCancel = nil
	}
	if s.fillCancel != nil {
		s.fillCancel()
		s.fillCancel = nil
	}
	delete(n.outStreams, s.id)
	n.reg.Histogram("stream.retx.rounds").Observe(float64(s.maxRounds))
	if err != nil {
		n.reg.Counter("stream.failed").Inc()
		if n.cfg.TriggeredUpdates {
			// Retry exhaustion is link-layer evidence the next hop is
			// dead; withdraw every route through it now rather than
			// waiting out EntryTTL.
			n.withdrawNextHop(s.dst, "stream retries exhausted")
		}
	} else {
		n.reg.Counter("stream.completed").Inc()
	}
	n.env.StreamDone(StreamEvent{
		ID:              s.id,
		Dst:             s.dst,
		Err:             err,
		Chunks:          len(s.chunks),
		Retransmissions: s.retrans,
		Elapsed:         n.env.Now().Sub(s.startedAt),
	})
}

// handleAck processes a cumulative acknowledgment for one of our streams.
func (n *Node) handleAck(p *packet.Packet) {
	s, ok := n.outStreams[p.SeqID]
	if !ok || s.dst != p.Src {
		n.reg.Counter("stream.stray_ack").Inc()
		return
	}
	s.rounds = 0
	if p.Number == 0 {
		// SYNC acknowledged: start the data phase.
		if s.mode == modeStream && !s.synced {
			s.synced = true
			n.fillWindow(s)
			n.armRetry(s)
		}
		return
	}
	k := int(p.Number)
	if k < s.base || k > len(s.chunks) {
		return // stale duplicate
	}
	s.base = k + 1
	if s.base > len(s.chunks) {
		n.finishStream(s, nil)
		return
	}
	n.fillWindow(s)
	n.armRetry(s)
}

// handleLost retransmits the chunk the receiver reported missing.
func (n *Node) handleLost(p *packet.Packet) {
	s, ok := n.outStreams[p.SeqID]
	if !ok || s.dst != p.Src {
		n.reg.Counter("stream.stray_lost").Inc()
		return
	}
	k := int(p.Number)
	if k < 1 || k > len(s.chunks) {
		return
	}
	n.reg.Counter("stream.lost_requests").Inc()
	// sendChunk's high-water mark accounts the retransmission.
	if err := n.sendChunk(s, k); err != nil {
		n.reg.Counter("stream.control_unroutable").Inc()
	}
}

// handleSingle is the receiver side of a single-packet reliable transfer:
// deliver once, acknowledge every copy.
func (n *Node) handleSingle(p *packet.Packet) {
	key := inKey{src: p.Src, id: p.SeqID}
	if s, ok := n.inStreams[key]; ok && s.done {
		n.sendControl(p.Src, packet.TypeAck, p.SeqID, p.Number)
		return
	}
	s := &inStream{total: 1, totalBytes: len(p.Payload), nextExpected: 2, done: true}
	n.inStreams[key] = s
	n.armStreamGC(key, s)
	n.reg.Counter("app.delivered").Inc()
	n.streamReceived(p, "data_ack")
	n.deliver(AppMessage{
		From:     p.Src,
		To:       p.Dst,
		Payload:  append([]byte(nil), p.Payload...),
		Reliable: true,
		Trace:    trace.TraceID(p.TraceID()),
		At:       n.env.Now(),
	})
	n.sendControl(p.Src, packet.TypeAck, p.SeqID, p.Number)
}

// handleSync opens (or re-acknowledges) an incoming transfer.
func (n *Node) handleSync(p *packet.Packet) {
	key := inKey{src: p.Src, id: p.SeqID}
	if s, ok := n.inStreams[key]; ok {
		// Duplicate SYNC: re-acknowledge with current progress.
		n.sendControl(p.Src, packet.TypeAck, p.SeqID, uint16(s.nextExpected-1))
		return
	}
	total := int(p.Number)
	if total < 1 {
		n.reg.Counter("rx.corrupt").Inc()
		return
	}
	totalBytes := 0
	if len(p.Payload) == 4 {
		totalBytes = int(binary.BigEndian.Uint32(p.Payload))
	}
	cs := n.chunkSize()
	if totalBytes <= 0 || totalBytes > total*cs || totalBytes <= (total-1)*cs {
		n.reg.Counter("rx.corrupt").Inc()
		return
	}
	s := &inStream{
		total:        total,
		totalBytes:   totalBytes,
		chunks:       make([][]byte, total),
		nextExpected: 1,
		secured:      p.Secured,
		counter:      p.Counter,
	}
	n.inStreams[key] = s
	n.armStreamGC(key, s)
	n.reg.Counter("stream.accepted").Inc()
	n.sendControl(p.Src, packet.TypeAck, p.SeqID, 0)
}

// handleChunk stores one stream chunk and acknowledges cumulatively. It
// also handles single-packet DATA_ACK transfers' receiver side via consume.
func (n *Node) handleChunk(p *packet.Packet) {
	key := inKey{src: p.Src, id: p.SeqID}
	s, ok := n.inStreams[key]
	if !ok {
		// Chunk for an unknown stream: the SYNC was lost. Asking for
		// "chunk 0" tells the sender to re-SYNC via its timeout; we
		// simply drop and let the sender's timer recover.
		n.reg.Counter("stream.orphan_chunk").Inc()
		return
	}
	k := int(p.Number)
	if k < 1 || k > s.total {
		n.reg.Counter("rx.corrupt").Inc()
		return
	}
	if s.done {
		// The whole payload was already delivered; the final ACK must
		// have been lost. Re-acknowledge.
		n.sendControl(p.Src, packet.TypeAck, p.SeqID, uint16(s.total))
		return
	}
	if s.chunks[k-1] == nil {
		s.chunks[k-1] = append([]byte(nil), p.Payload...)
	}
	for s.nextExpected <= s.total && s.chunks[s.nextExpected-1] != nil {
		s.nextExpected++
	}
	if k > s.nextExpected-1 && s.nextExpected <= s.total {
		// Sequence gap: request the missing chunk, rate-limited to one
		// LOST per retry interval per stream.
		now := n.env.Now()
		if now.Sub(s.lastLost) >= n.cfg.StreamRetry/2 {
			s.lastLost = now
			n.sendControl(p.Src, packet.TypeLost, p.SeqID, uint16(s.nextExpected))
		}
	}
	n.sendControl(p.Src, packet.TypeAck, p.SeqID, uint16(s.nextExpected-1))
	n.armStreamGC(key, s)

	if s.nextExpected > s.total {
		s.done = true
		payload := make([]byte, 0, s.totalBytes)
		for _, c := range s.chunks {
			payload = append(payload, c...)
		}
		s.chunks = nil
		if len(payload) != s.totalBytes {
			n.reg.Counter("stream.length_mismatch").Inc()
		}
		// A multi-chunk stream has no single delivering packet; derive a
		// stable end-to-end ID from the stream's identity and reassembled
		// payload, so every retransmission-path outcome hashes alike.
		sid := &packet.Packet{
			Dst: n.cfg.Address, Src: p.Src, Type: packet.TypeSync,
			SeqID: p.SeqID, Number: uint16(s.total), Payload: payload,
			// On a secured mesh the opening SYNC's origin counter keys
			// the ID, so re-sends of an identical payload stay distinct.
			Secured: s.secured, Counter: s.counter,
		}
		n.streamReceived(sid, "stream")
		n.deliver(AppMessage{
			From:     p.Src,
			To:       n.cfg.Address,
			Payload:  payload,
			Reliable: true,
			Trace:    trace.TraceID(sid.TraceID()),
			At:       n.env.Now(),
		})
	}
}

// armStreamGC (re)schedules expiry of receiver-side stream state. The
// grace covers the sender's full retry budget so duplicate final chunks
// still find the state and get re-acknowledged.
func (n *Node) armStreamGC(key inKey, s *inStream) {
	if s.gcCancel != nil {
		s.gcCancel()
	}
	// The budget covers every backed-off round; the extra quarter
	// absorbs jitter plus one final duplicate's flight time.
	grace := n.retryBudget() + n.retryBudget()/4
	s.gcCancel = n.env.Schedule(grace, func() {
		if n.inStreams[key] == s {
			delete(n.inStreams, key)
			if !s.done {
				n.reg.Counter("stream.abandoned").Inc()
			}
		}
	})
}
