package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/packet"
)

// makePayload returns a deterministic byte pattern of length n.
func makePayload(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7 + i>>8)
	}
	return p
}

// converge builds a 2-node full-mesh bus and lets it discover routes.
func converge(t *testing.T, cfg Config, addrs ...packet.Address) *bus {
	t.Helper()
	b := newBus(t, cfg, addrs...)
	b.run(6 * time.Second)
	return b
}

func TestReliableSinglePacket(t *testing.T) {
	b := converge(t, fastConfig(), 1, 2)
	sender := b.env(1)
	id, err := sender.node.SendReliable(2, []byte("important"))
	if err != nil {
		t.Fatal(err)
	}
	b.run(5 * time.Second)

	msgs := b.env(2).msgs
	if len(msgs) != 1 || string(msgs[0].Payload) != "important" {
		t.Fatalf("receiver messages = %+v", msgs)
	}
	if !msgs[0].Reliable {
		t.Error("stream delivery not marked reliable")
	}
	if len(sender.events) != 1 {
		t.Fatalf("sender got %d stream events, want 1", len(sender.events))
	}
	ev := sender.events[0]
	if ev.Err != nil || ev.ID != id || ev.Dst != 2 || ev.Chunks != 1 {
		t.Errorf("stream event = %+v", ev)
	}
}

func TestReliableMultiChunk(t *testing.T) {
	b := converge(t, fastConfig(), 1, 2)
	payload := makePayload(1000) // 5 chunks of 244
	if _, err := b.env(1).node.SendReliable(2, payload); err != nil {
		t.Fatal(err)
	}
	b.run(60 * time.Second)

	msgs := b.env(2).msgs
	if len(msgs) != 1 {
		t.Fatalf("receiver got %d messages, want 1", len(msgs))
	}
	if !bytes.Equal(msgs[0].Payload, payload) {
		t.Fatal("payload corrupted in transfer")
	}
	evs := b.env(1).events
	if len(evs) != 1 || evs[0].Err != nil {
		t.Fatalf("stream events = %+v", evs)
	}
	// The bus is plaintext, so a chunk is a whole XL_DATA payload.
	maxChunk := packet.MaxPayload(packet.TypeXLData)
	if want := (len(payload) + maxChunk - 1) / maxChunk; evs[0].Chunks != want {
		t.Errorf("chunks = %d, want %d", evs[0].Chunks, want)
	}
	if evs[0].Retransmissions != 0 {
		t.Errorf("lossless link had %d retransmissions", evs[0].Retransmissions)
	}
}

func TestReliableMultiHop(t *testing.T) {
	chain := []packet.Address{1, 2, 3}
	cfg := fastConfig()
	b := newBus(t, cfg, chain...)
	b.drop = chainDrop(chain)
	b.run(10 * time.Second)

	payload := makePayload(600)
	if _, err := b.env(1).node.SendReliable(3, payload); err != nil {
		t.Fatal(err)
	}
	b.run(60 * time.Second)
	msgs := b.env(3).msgs
	if len(msgs) != 1 || !bytes.Equal(msgs[0].Payload, payload) {
		t.Fatalf("multi-hop transfer failed: %d messages", len(msgs))
	}
}

func TestReliableRecoversFromLoss(t *testing.T) {
	cfg := fastConfig()
	b := converge(t, cfg, 1, 2)
	// Drop the first two XL_DATA frames (by content sniff on type byte).
	dropped := 0
	b.drop = func(from, to packet.Address, frame []byte) bool {
		if len(frame) > 4 && packet.Type(frame[4]) == packet.TypeXLData && dropped < 2 {
			dropped++
			return true
		}
		return false
	}
	payload := makePayload(1200)
	if _, err := b.env(1).node.SendReliable(2, payload); err != nil {
		t.Fatal(err)
	}
	b.run(2 * time.Minute)

	msgs := b.env(2).msgs
	if len(msgs) != 1 || !bytes.Equal(msgs[0].Payload, payload) {
		t.Fatalf("lossy transfer failed: %d messages", len(msgs))
	}
	evs := b.env(1).events
	if len(evs) != 1 || evs[0].Err != nil {
		t.Fatalf("stream events = %+v", evs)
	}
	if evs[0].Retransmissions == 0 {
		t.Error("recovery without retransmissions is impossible here")
	}
	if dropped != 2 {
		t.Fatalf("setup: dropped %d frames, want 2", dropped)
	}
}

func TestReliableSurvivesLostSync(t *testing.T) {
	cfg := fastConfig()
	b := converge(t, cfg, 1, 2)
	droppedSync := false
	b.drop = func(from, to packet.Address, frame []byte) bool {
		if len(frame) > 4 && packet.Type(frame[4]) == packet.TypeSync && !droppedSync {
			droppedSync = true
			return true
		}
		return false
	}
	payload := makePayload(500)
	if _, err := b.env(1).node.SendReliable(2, payload); err != nil {
		t.Fatal(err)
	}
	b.run(2 * time.Minute)
	if msgs := b.env(2).msgs; len(msgs) != 1 || !bytes.Equal(msgs[0].Payload, payload) {
		t.Fatalf("transfer with lost SYNC failed: %d messages", len(msgs))
	}
}

func TestReliableSurvivesLostAck(t *testing.T) {
	cfg := fastConfig()
	b := converge(t, cfg, 1, 2)
	droppedAck := false
	b.drop = func(from, to packet.Address, frame []byte) bool {
		if len(frame) > 4 && packet.Type(frame[4]) == packet.TypeAck && !droppedAck {
			droppedAck = true
			return true
		}
		return false
	}
	payload := makePayload(500)
	if _, err := b.env(1).node.SendReliable(2, payload); err != nil {
		t.Fatal(err)
	}
	b.run(2 * time.Minute)
	if msgs := b.env(2).msgs; len(msgs) != 1 || !bytes.Equal(msgs[0].Payload, payload) {
		t.Fatalf("transfer with lost ACK failed: %d messages", len(msgs))
	}
	// The duplicate retransmission must not double-deliver.
	if msgs := b.env(2).msgs; len(msgs) != 1 {
		t.Fatalf("double delivery: %d messages", len(msgs))
	}
}

func TestReliableFailsAfterMaxRetries(t *testing.T) {
	cfg := fastConfig()
	cfg.StreamMaxRetries = 2
	cfg.StreamRetry = 2 * time.Second
	b := converge(t, cfg, 1, 2)
	// Total blackout for stream traffic after convergence.
	b.drop = func(from, to packet.Address, frame []byte) bool {
		return len(frame) > 4 && packet.Type(frame[4]) != packet.TypeHello
	}
	if _, err := b.env(1).node.SendReliable(2, makePayload(500)); err != nil {
		t.Fatal(err)
	}
	b.run(time.Minute)
	evs := b.env(1).events
	if len(evs) != 1 {
		t.Fatalf("stream events = %+v, want one failure", evs)
	}
	if !errors.Is(evs[0].Err, ErrStreamFailed) {
		t.Errorf("stream error = %v, want ErrStreamFailed", evs[0].Err)
	}
	if len(b.env(1).node.outStreams) != 0 {
		t.Error("failed stream state not cleaned up")
	}
}

func TestReliableGoBackNWindow(t *testing.T) {
	// Windowed (go-back-N) transfers must stay correct under the
	// half-duplex intra-flow interference they create on a chain: a
	// forwarder transmitting chunk k misses chunk k+1, so pipelining
	// triggers loss recovery. (Whether windowing is *faster* is the A3
	// ablation's question — over half-duplex LoRa it generally is not,
	// which is why the prototype ships stop-and-wait.)
	chain := []packet.Address{1, 2, 3, 4}
	payload := makePayload(2000) // 9 chunks
	for _, window := range []int{1, 4} {
		cfg := fastConfig()
		cfg.StreamWindow = window
		b := newBus(t, cfg, chain...)
		b.drop = chainDrop(chain)
		b.run(15 * time.Second)
		if _, err := b.env(1).node.SendReliable(4, payload); err != nil {
			t.Fatal(err)
		}
		b.run(5 * time.Minute)
		msgs := b.env(4).msgs
		if len(msgs) != 1 || !bytes.Equal(msgs[0].Payload, payload) {
			t.Fatalf("window=%d transfer failed: %d messages", window, len(msgs))
		}
		evs := b.env(1).events
		if len(evs) != 1 || evs[0].Err != nil {
			t.Fatalf("window=%d stream events = %+v", window, evs)
		}
	}
}

func TestReliableValidation(t *testing.T) {
	b := converge(t, fastConfig(), 1, 2)
	n := b.env(1).node
	if _, err := n.SendReliable(packet.Broadcast, []byte("x")); err == nil {
		t.Error("broadcast stream: want error")
	}
	if _, err := n.SendReliable(2, nil); err == nil {
		t.Error("empty stream: want error")
	}
	if _, err := n.SendReliable(9, []byte("x")); !errors.Is(err, ErrNoRoute) {
		t.Errorf("stream to unknown = %v, want ErrNoRoute", err)
	}
}

func TestReliableConcurrentStreamLimit(t *testing.T) {
	b := converge(t, fastConfig(), 1, 2)
	n := b.env(1).node
	for i := 0; i < maxOutStreams; i++ {
		if _, err := n.SendReliable(2, makePayload(3000)); err != nil {
			t.Fatalf("stream %d: %v", i, err)
		}
	}
	if _, err := n.SendReliable(2, makePayload(100)); !errors.Is(err, ErrBusyStream) {
		t.Errorf("concurrent stream %d = %v, want ErrBusyStream", maxOutStreams+1, err)
	}
	b.run(6 * time.Minute)
	// Every stream completes and the slots free up.
	if len(b.env(2).msgs) != maxOutStreams {
		t.Fatalf("receiver got %d messages, want %d", len(b.env(2).msgs), maxOutStreams)
	}
	if _, err := n.SendReliable(2, makePayload(100)); err != nil {
		t.Errorf("stream after completion: %v", err)
	}
}

func TestReliableDistinctStreamsDoNotInterfere(t *testing.T) {
	b := converge(t, fastConfig(), 1, 2, 3)
	p1, p2 := makePayload(700), makePayload(900)
	if _, err := b.env(1).node.SendReliable(3, p1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.env(2).node.SendReliable(3, p2); err != nil {
		t.Fatal(err)
	}
	b.run(2 * time.Minute)
	msgs := b.env(3).msgs
	if len(msgs) != 2 {
		t.Fatalf("receiver got %d messages, want 2", len(msgs))
	}
	seen := map[int]bool{}
	for _, m := range msgs {
		seen[len(m.Payload)] = true
		var want []byte
		if len(m.Payload) == 700 {
			want = p1
		} else {
			want = p2
		}
		if !bytes.Equal(m.Payload, want) {
			t.Error("stream payload corrupted or interleaved")
		}
	}
	if !seen[700] || !seen[900] {
		t.Errorf("got payload sizes %v, want 700 and 900", seen)
	}
}

func TestStreamStrayControlIgnored(t *testing.T) {
	b := converge(t, fastConfig(), 1, 2)
	n := b.env(1).node
	// ACK/LOST for a stream we never opened.
	for _, typ := range []packet.Type{packet.TypeAck, packet.TypeLost} {
		p := &packet.Packet{Dst: 1, Src: 2, Type: typ, Via: 1, SeqID: 99, Number: 1}
		frame, err := packet.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		n.HandleFrame(frame, RxInfo{})
	}
	if got := n.Metrics().Counter("stream.stray_ack").Value(); got != 1 {
		t.Errorf("stray_ack = %d, want 1", got)
	}
	if got := n.Metrics().Counter("stream.stray_lost").Value(); got != 1 {
		t.Errorf("stray_lost = %d, want 1", got)
	}
}

func TestStreamCorruptSyncRejected(t *testing.T) {
	b := converge(t, fastConfig(), 1, 2)
	n := b.env(2).node
	// SYNC claiming 0 chunks.
	p := &packet.Packet{Dst: 2, Src: 1, Type: packet.TypeSync, Via: 2, SeqID: 1, Number: 0,
		Payload: []byte{0, 0, 0, 10}}
	frame, err := packet.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	before := n.Metrics().Counter("rx.corrupt").Value()
	n.HandleFrame(frame, RxInfo{})
	// SYNC whose byte length disagrees with the chunk count.
	p.Number = 3
	p.Payload = []byte{0, 0, 0, 5} // 5 bytes cannot need 3 chunks
	frame, err = packet.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	n.HandleFrame(frame, RxInfo{})
	if got := n.Metrics().Counter("rx.corrupt").Value(); got != before+2 {
		t.Errorf("rx.corrupt = %d, want %d", got, before+2)
	}
	if len(n.inStreams) != 0 {
		t.Error("corrupt SYNC created receiver state")
	}
}

// TestSyncFloodIsBounded: SYNC frames that each claim a long stream and
// send no chunk cost a receiver nothing past its caps. One source opens
// all 256 of its stream IDs, then 100 more sources one each; the receiver
// holds at most maxInStreamsPerSource open from the first and maxInStreams
// in all, refuses every other SYNC as stream.sync_refused without
// allocating, and holds no chunk storage for a chunk it never received.
// Once the open streams expire, a source may open streams again.
func TestSyncFloodIsBounded(t *testing.T) {
	const claimed, sources = 1000, 100 // chunks a SYNC claims; sources past the first
	b := converge(t, fastConfig(), 1, 2)
	n := b.env(2).node
	syncFrame := func(src packet.Address, id uint8) []byte {
		p := &packet.Packet{Dst: 2, Src: src, Type: packet.TypeSync, Via: 2, SeqID: id, Number: claimed,
			Payload: binary.BigEndian.AppendUint32(nil, uint32(claimed*n.chunkSize()))}
		frame, err := packet.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}
	for id := 0; id < 256; id++ {
		n.HandleFrame(syncFrame(1, uint8(id)), RxInfo{})
	}
	for src := 3; src < 3+sources; src++ {
		n.HandleFrame(syncFrame(packet.Address(src), 0), RxInfo{})
	}
	open, fromOne, slots := 0, 0, 0
	for k, s := range n.inStreams {
		if !s.done {
			open++
			if k.src == 1 {
				fromOne++
			}
		}
		slots += len(s.chunks)
	}
	refused := n.Metrics().Counter("stream.sync_refused").Value()
	t.Logf("%d streams open (%d from source 1), %d chunk slots, %d SYNCs refused", open, fromOne, slots, refused)
	if fromOne > maxInStreamsPerSource || open > maxInStreams || slots != 0 {
		t.Fatalf("%d streams open, %d from one source, holding %d chunk slots; want at most %d, %d and none",
			open, fromOne, slots, maxInStreams, maxInStreamsPerSource)
	}
	if want := uint64(256 + sources - open); refused != want {
		t.Fatalf("stream.sync_refused = %d, want the %d SYNCs not opened", refused, want)
	}
	refuse := syncFrame(sources+3, 0)
	if a := mallocs(10, func() { n.HandleFrame(refuse, RxInfo{}) }); a != 0 {
		t.Errorf("10 refused SYNCs allocated %d times, want none", a)
	}
	b.run(time.Hour) // every open stream expires
	if n.inOpenAll != 0 || len(n.inOpen) != 0 {
		t.Fatalf("after expiry %d streams counted open (%d sources)", n.inOpenAll, len(n.inOpen))
	}
	n.HandleFrame(syncFrame(1, 0), RxInfo{})
	if s, ok := n.inStreams[inKey{src: 1, id: 0}]; !ok || s.done {
		t.Fatal("after expiry a SYNC is still refused")
	}
}

// TestSingleFloodIsBounded: DATA_ACK frames from spoofed sources cost a
// receiver at most maxInSingles held transfers. 100 sources send one on
// each of their 256 stream IDs; the receiver delivers and acknowledges the
// first maxInSingles, refuses every other as stream.single_refused with no
// ACK (each ACK to these unroutable sources counts as
// stream.control_unroutable), and once the held transfers expire accepts
// a transfer again.
func TestSingleFloodIsBounded(t *testing.T) {
	const sources = 100
	b := converge(t, fastConfig(), 1, 2)
	n := b.env(2).node
	single := func(src packet.Address, id uint8) []byte {
		frame, err := packet.Marshal(&packet.Packet{Dst: 2, Src: src, Type: packet.TypeDataAck, Via: 2,
			SeqID: id, Number: 1, Payload: []byte("reading")})
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}
	for src := 3; src < 3+sources; src++ {
		for id := 0; id < 256; id++ {
			n.HandleFrame(single(packet.Address(src), uint8(id)), RxInfo{})
		}
	}
	refused := n.Metrics().Counter("stream.single_refused").Value()
	acks := n.Metrics().Counter("stream.control_unroutable").Value()
	t.Logf("%d transfers held, %d refused, %d ACKs", len(n.inStreams), refused, acks)
	if len(n.inStreams) > maxInSingles || n.inSingles != len(n.inStreams) {
		t.Fatalf("%d transfers held (%d counted), want at most %d", len(n.inStreams), n.inSingles, maxInSingles)
	}
	if want := uint64(256*sources - len(n.inStreams)); refused != want || acks != uint64(len(n.inStreams)) {
		t.Fatalf("%d refused and %d ACKs sent; want the %d not held refused and one ACK a held transfer", refused, acks, want)
	}
	b.run(time.Hour) // every held transfer expires
	if n.inSingles != 0 || len(n.inStreams) != 0 {
		t.Fatalf("after expiry %d transfers held (%d counted)", len(n.inStreams), n.inSingles)
	}
	n.HandleFrame(single(3, 0), RxInfo{})
	if s, ok := n.inStreams[inKey{src: 3, id: 0}]; !ok || !s.single {
		t.Fatal("after expiry a transfer is still refused")
	}
}

// TestSingleClosesTheStreamItReplaces: a DATA_ACK under the key of a
// stream still open (its sender gave up and reused the ID) replaces the
// stream and uncounts it, so the stream's slot is free at once and not
// held open forever.
func TestSingleClosesTheStreamItReplaces(t *testing.T) {
	b := converge(t, fastConfig(), 1, 2)
	n := b.env(2).node
	for _, p := range []*packet.Packet{
		{Dst: 2, Src: 1, Type: packet.TypeSync, Via: 2, SeqID: 7, Number: 2,
			Payload: binary.BigEndian.AppendUint32(nil, uint32(n.chunkSize()+1))},
		{Dst: 2, Src: 1, Type: packet.TypeDataAck, Via: 2, SeqID: 7, Number: 1, Payload: []byte("reading")},
	} {
		frame, err := packet.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		n.HandleFrame(frame, RxInfo{})
	}
	if s := n.inStreams[inKey{src: 1, id: 7}]; s == nil || !s.single || n.inOpenAll != 0 || len(n.inOpen) != 0 {
		t.Fatalf("after the replacing transfer: entry %+v, %d streams counted open", s, n.inOpenAll)
	}
	b.run(time.Hour)
	if n.inOpenAll != 0 || n.inSingles != 0 || len(n.inStreams) != 0 {
		t.Fatalf("after expiry: %d open, %d singles, %d entries", n.inOpenAll, n.inSingles, len(n.inStreams))
	}
}

func TestStreamElapsedAndMetrics(t *testing.T) {
	b := converge(t, fastConfig(), 1, 2)
	if _, err := b.env(1).node.SendReliable(2, makePayload(600)); err != nil {
		t.Fatal(err)
	}
	b.run(time.Minute)
	ev := b.env(1).events[0]
	if ev.Elapsed <= 0 {
		t.Errorf("elapsed = %v, want positive", ev.Elapsed)
	}
	m := b.env(1).node.Metrics()
	if m.Counter("stream.opened").Value() != 1 || m.Counter("stream.completed").Value() != 1 {
		t.Error("stream counters wrong")
	}
	if b.env(2).node.Metrics().Counter("stream.received").Value() != 1 {
		t.Error("receiver stream counter wrong")
	}
}

// TestPropertyStreamIntegrityUnderRandomLoss drives reliable transfers
// through random loss patterns: whatever arrives must be byte-identical,
// and the sender must always reach a terminal event (success or failure),
// never a hung stream.
func TestPropertyStreamIntegrityUnderRandomLoss(t *testing.T) {
	f := func(seed int64, sizeRaw uint16, lossRaw uint8) bool {
		size := int(sizeRaw)%3000 + 1
		lossNum := int(lossRaw) % 4 // drop every k-th frame for k in {0..3}
		cfg := fastConfig()
		cfg.StreamRetry = 3 * time.Second
		cfg.StreamMaxRetries = 6
		b := newBus(t, cfg, 1, 2)
		b.run(5 * time.Second)
		count := 0
		b.drop = func(from, to packet.Address, frame []byte) bool {
			if lossNum == 0 {
				return false
			}
			count++
			return count%(lossNum+3) == 0
		}
		payload := makePayload(size)
		if _, err := b.env(1).node.SendReliable(2, payload); err != nil {
			return false
		}
		b.run(10 * time.Minute)
		evs := b.env(1).events
		if len(evs) != 1 {
			return false // stream hung: no terminal event
		}
		msgs := b.env(2).msgs
		if evs[0].Err == nil {
			// Success must mean exact delivery.
			return len(msgs) == 1 && bytes.Equal(msgs[0].Payload, payload)
		}
		// Failure must not have delivered a corrupted payload.
		return len(msgs) == 0 || bytes.Equal(msgs[0].Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestReusedStreamIDStillDelivers: 300 reliable singles, 0.5 s apart, cycle
// the 256 stream ids well inside the receiver's grace. Sent alternately to
// two destinations, every one is delivered: the sender skips an id whose
// last transfer to that destination the receiver may still hold as done.
// Sent to one destination, a send finds no such id free and is refused
// with ErrBusyStream; every accepted one is delivered.
func TestReusedStreamIDStillDelivers(t *testing.T) {
	const sends = 300
	for _, dsts := range [][]packet.Address{{2, 3}, {2}} {
		b := converge(t, fastConfig(), 1, 2, 3)
		sender := b.env(1)
		if grace := sender.node.streamGrace(); grace <= 256*500*time.Millisecond {
			t.Fatalf("grace %v: 256 sends 0.5 s apart do not cycle the ids inside it", grace)
		}
		accepted, refused := 0, 0
		for i := 0; i < sends; i++ {
			_, err := sender.node.SendReliable(dsts[i%len(dsts)], []byte{byte(i), byte(i >> 8)})
			switch {
			case err == nil:
				accepted++
			case errors.Is(err, ErrBusyStream):
				refused++
			default:
				t.Fatalf("send %d: %v", i, err)
			}
			b.run(500 * time.Millisecond)
		}
		b.run(30 * time.Second)
		delivered := len(b.env(2).msgs) + len(b.env(3).msgs)
		t.Logf("%d destinations: %d accepted, %d refused, %d delivered", len(dsts), accepted, refused, delivered)
		if delivered != accepted {
			t.Errorf("%d destinations: %d transfers accepted, %d delivered", len(dsts), accepted, delivered)
		}
		if len(dsts) == 2 && accepted != sends {
			t.Errorf("two destinations: %d of %d sends accepted", accepted, sends)
		}
		for _, ev := range sender.events {
			if ev.Err != nil {
				t.Errorf("%d destinations: stream %d to %v: %v", len(dsts), ev.ID, ev.Dst, ev.Err)
			}
		}
	}
}
