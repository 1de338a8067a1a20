package main

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/loraphy"
	"repro/internal/meshsec"
	"repro/internal/packet"
	"repro/internal/span"
	"repro/internal/trace"
)

func encodeHex(t testing.TB, p *packet.Packet) string {
	t.Helper()
	buf, err := packet.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	const hexdigits = "0123456789abcdef"
	var sb strings.Builder
	for _, b := range buf {
		sb.WriteByte(hexdigits[b>>4])
		sb.WriteByte(hexdigits[b&0xf])
	}
	return sb.String()
}

func TestDumpHello(t *testing.T) {
	payload, err := packet.MarshalHello([]packet.HelloEntry{
		{Addr: 0x1234, Metric: 2, Role: packet.RoleSink},
	})
	if err != nil {
		t.Fatal(err)
	}
	hexFrame := encodeHex(t, &packet.Packet{
		Dst: packet.Broadcast, Src: 1, Type: packet.TypeHello, Payload: payload,
	})
	var sb strings.Builder
	if err := dump(&sb, hexFrame, loraphy.DefaultParams(), nil); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"HELLO", "1234 metric 2 sink", "airtime"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump output missing %q:\n%s", want, out)
		}
	}
}

func TestDumpDataWithSeparators(t *testing.T) {
	hexFrame := encodeHex(t, &packet.Packet{
		Dst: 9, Src: 2, Type: packet.TypeData, Via: 3, Payload: []byte("hi"),
	})
	// Insert separators; dump must strip them.
	spaced := strings.Join(strings.Split(hexFrame, ""), " ")
	var sb strings.Builder
	if err := dump(&sb, spaced, loraphy.DefaultParams(), nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"hi"`) {
		t.Errorf("dump output = %s", sb.String())
	}
}

func TestDumpErrors(t *testing.T) {
	var sb strings.Builder
	if err := dump(&sb, "zz", loraphy.DefaultParams(), nil); err == nil {
		t.Error("bad hex: want error")
	}
	if err := dump(&sb, "0102", loraphy.DefaultParams(), nil); err == nil {
		t.Error("truncated frame: want error")
	}
}

func TestPreviewPayload(t *testing.T) {
	if got := previewPayload([]byte("plain")); got != `"plain"` {
		t.Errorf("printable preview = %s", got)
	}
	if got := previewPayload([]byte{0x00, 0xff}); got != "00ff" {
		t.Errorf("binary preview = %s", got)
	}
	long := make([]byte, 100)
	for i := range long {
		long[i] = 'a'
	}
	if got := previewPayload(long); !strings.HasSuffix(got, "...") {
		t.Errorf("long preview not truncated: %s", got)
	}
}

func TestDumpEvents(t *testing.T) {
	// Build a small stream the way meshsim's sink would.
	tr := trace.New(16, 0)
	var jsonl bytes.Buffer
	tr.SetSink(&jsonl)
	at := time.Date(2022, 7, 1, 0, 0, 0, 0, time.UTC)
	id := trace.TraceID(0x9c4f21aa03b7e5d1)
	tr.EmitPacket(at, "0001", trace.KindTx, id, "tx DATA")
	tr.EmitPacket(at.Add(time.Second), "0002", trace.KindRx, id, "rx DATA")
	tr.EmitPacket(at.Add(2*time.Second), "0002", trace.KindDrop, id, "drop: no route")
	tr.Emit(at.Add(3*time.Second), "0003", trace.KindTx, "unrelated beacon")

	run := func(traceID, kind, node string) string {
		t.Helper()
		var out bytes.Buffer
		if err := dumpEvents(&out, bytes.NewReader(jsonl.Bytes()), traceID, kind, node); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}

	all := run("", "", "")
	if !strings.Contains(all, "4 of 4 events") {
		t.Errorf("unfiltered dump:\n%s", all)
	}
	byTrace := run(id.String(), "", "")
	if !strings.Contains(byTrace, "3 of 4 events") || strings.Contains(byTrace, "unrelated") {
		t.Errorf("trace filter:\n%s", byTrace)
	}
	if !strings.Contains(byTrace, "drop: no route") {
		t.Error("journey lost its drop reason")
	}
	byKind := run("", "drop", "")
	if !strings.Contains(byKind, "1 of 4 events") {
		t.Errorf("kind filter:\n%s", byKind)
	}
	byNode := run("", "", "0002")
	if !strings.Contains(byNode, "2 of 4 events") {
		t.Errorf("node filter:\n%s", byNode)
	}
	combined := run(id.String(), "rx", "0002")
	if !strings.Contains(combined, "1 of 4 events") {
		t.Errorf("combined filters:\n%s", combined)
	}

	if err := dumpEvents(io.Discard, bytes.NewReader(jsonl.Bytes()), "zzz", "", ""); err == nil {
		t.Error("bad trace ID: want error")
	}
	if err := dumpEvents(io.Discard, strings.NewReader("{not json}\n"), "", "", ""); err == nil {
		t.Error("malformed JSONL: want error")
	}
}

func TestDumpInterest(t *testing.T) {
	// nonce(2) + hops(1) + prevHop(2) + name, as internal/icn sends it.
	name := "city/7/air"
	payload := make([]byte, 5+len(name))
	binary.BigEndian.PutUint16(payload[0:2], 258)
	payload[2] = 3
	binary.BigEndian.PutUint16(payload[3:5], 0x0007)
	copy(payload[5:], name)
	hexFrame := encodeHex(t, &packet.Packet{
		Dst: packet.Broadcast, Src: 0x0002, Type: packet.TypeInterest, Payload: payload,
	})
	var sb strings.Builder
	if err := dump(&sb, hexFrame, loraphy.DefaultParams(), nil); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"INTEREST", `"city/7/air"`, "nonce=258", "hops=3", "prev-hop=0007"} {
		if !strings.Contains(out, want) {
			t.Errorf("interest dump missing %q:\n%s", want, out)
		}
	}

	short := encodeHex(t, &packet.Packet{
		Dst: packet.Broadcast, Src: 0x0002, Type: packet.TypeInterest, Payload: []byte{1, 2, 3},
	})
	if err := dump(io.Discard, short, loraphy.DefaultParams(), nil); err == nil {
		t.Error("truncated interest payload: want error")
	}
}

func TestDumpNamedData(t *testing.T) {
	// producer(2) + hops(1) + nameLen(1) + name + content.
	name := "city/7/air"
	content := "21.5C"
	payload := make([]byte, 4+len(name)+len(content))
	binary.BigEndian.PutUint16(payload[0:2], 0x0009)
	payload[2] = 2
	payload[3] = uint8(len(name))
	copy(payload[4:], name)
	copy(payload[4+len(name):], content)
	hexFrame := encodeHex(t, &packet.Packet{
		Dst: 0x0002, Src: 0x0005, Via: 0x0003, Type: packet.TypeNamedData, Payload: payload,
	})
	var sb strings.Builder
	if err := dump(&sb, hexFrame, loraphy.DefaultParams(), nil); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"NAMED_DATA", `"city/7/air"`, "producer=0009", "hops=2", `content (5 B): "21.5C"`} {
		if !strings.Contains(out, want) {
			t.Errorf("named-data dump missing %q:\n%s", want, out)
		}
	}

	// A name length pointing past the payload is rejected.
	bad := encodeHex(t, &packet.Packet{
		Dst: 0x0002, Src: 0x0005, Via: 0x0003, Type: packet.TypeNamedData,
		Payload: []byte{0x00, 0x09, 2, 200, 'x'},
	})
	if err := dump(io.Discard, bad, loraphy.DefaultParams(), nil); err == nil {
		t.Error("overlong name length: want error")
	}
}

func TestDumpSlotBeacon(t *testing.T) {
	hexFrame := encodeHex(t, &packet.Packet{
		Dst: packet.Broadcast, Src: 0x0004, Type: packet.TypeSlotBeacon,
		Payload: []byte{3, 1, 2},
	})
	var sb strings.Builder
	if err := dump(&sb, hexFrame, loraphy.DefaultParams(), nil); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"SLOT_BEACON", "slot 1 of 3", "sender depth 2"} {
		if !strings.Contains(out, want) {
			t.Errorf("slot-beacon dump missing %q:\n%s", want, out)
		}
	}

	bad := encodeHex(t, &packet.Packet{
		Dst: packet.Broadcast, Src: 0x0004, Type: packet.TypeSlotBeacon,
		Payload: []byte{3, 1},
	})
	if err := dump(io.Discard, bad, loraphy.DefaultParams(), nil); err == nil {
		t.Error("short slot-beacon payload: want error")
	}
}

// TestDumpStrategyPayloadBounds walks each strategy payload across the
// edges of what its engine accepts: packetdump must reject exactly what a
// node rejects, with an error and never a panic.
func TestDumpStrategyPayloadBounds(t *testing.T) {
	interest := func(name string) []byte {
		return append(packet.Breadcrumb{ID: 1, Hops: 2, PrevHop: 3}.Append(nil), name...)
	}
	for _, c := range []struct {
		what    string
		typ     packet.Type
		payload []byte
		ok      bool
	}{
		{"interest, empty name", packet.TypeInterest, interest(""), false},
		{"interest, 1-byte name", packet.TypeInterest, interest("n"), true},
		{"interest, MaxNameLen name", packet.TypeInterest, interest(strings.Repeat("n", packet.MaxNameLen)), true},
		{"interest, name past MaxNameLen", packet.TypeInterest, interest(strings.Repeat("n", packet.MaxNameLen+1)), false},
		{"interest, 4-byte header", packet.TypeInterest, []byte{0, 1, 2, 0}, false},
		{"named data, 0 bytes", packet.TypeNamedData, []byte{}, false},
		{"named data, 1 byte", packet.TypeNamedData, []byte{0}, false},
		{"named data, 2 bytes", packet.TypeNamedData, []byte{0, 9}, false},
		{"named data, 3 bytes", packet.TypeNamedData, []byte{0, 9, 2}, false},
		{"named data, header only", packet.TypeNamedData, []byte{0, 9, 2, 0}, true},
		{"named data, name length past the end", packet.TypeNamedData, []byte{0, 9, 2, 2, 'x'}, false},
		{"slot beacon, 2 bytes", packet.TypeSlotBeacon, []byte{3, 1}, false},
		{"slot beacon, 3 bytes", packet.TypeSlotBeacon, []byte{3, 1, 2}, true},
		{"slot beacon, 4 bytes", packet.TypeSlotBeacon, []byte{3, 1, 2, 0}, false},
	} {
		p := &packet.Packet{Dst: packet.Broadcast, Src: 2, Type: c.typ, Payload: c.payload}
		if c.typ.Routed() {
			p.Dst, p.Via = 5, 3
		}
		err := dump(io.Discard, encodeHex(t, p), loraphy.DefaultParams(), nil)
		if (err == nil) != c.ok {
			t.Errorf("%s: dump error %v, want accepted %v", c.what, err, c.ok)
		}
	}
}

// FuzzDump feeds arbitrary frames to dump, with and without a key: no
// input may panic. The seeds are the frames the TestDump* cases build.
func FuzzDump(f *testing.F) {
	key := meshsec.Key{0x2b, 0x7e, 0x15, 0x16}
	hello, err := packet.MarshalHello([]packet.HelloEntry{{Addr: 0x1234, Metric: 2, Role: packet.RoleSink}})
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range []*packet.Packet{
		{Dst: packet.Broadcast, Src: 1, Type: packet.TypeHello, Payload: hello},
		{Dst: 9, Src: 2, Type: packet.TypeData, Via: 3, Payload: []byte("hi")},
		{Dst: packet.Broadcast, Src: 2, Type: packet.TypeInterest,
			Payload: append(packet.Breadcrumb{ID: 258, Hops: 3, PrevHop: 7}.Append(nil), "city/7/air"...)},
		{Dst: 2, Src: 5, Via: 3, Type: packet.TypeNamedData,
			Payload: packet.NamedData{Producer: 9, Hops: 2, Name: "city/7/air", Content: []byte("21.5C")}.Append(nil)},
		{Dst: packet.Broadcast, Src: 4, Type: packet.TypeSlotBeacon, Payload: []byte{3, 1, 2}},
	} {
		frame, err := hex.DecodeString(encodeHex(f, p))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame, false)
	}
	sealed, err := hex.DecodeString(sealedHex(f, key, &packet.Packet{
		Dst: 2, Src: 1, Via: 2, Type: packet.TypeData, Payload: []byte("hello mesh"), Counter: 7,
	}))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sealed, true)
	f.Add([]byte{0x01, 0x02}, false)

	f.Fuzz(func(t *testing.T, frame []byte, keyed bool) {
		var link *meshsec.Link
		if keyed {
			link = meshsec.NewLink(key, 0)
		}
		_ = dump(io.Discard, hex.EncodeToString(frame), loraphy.DefaultParams(), link)
	})
}

func TestDumpEventsStrategyKinds(t *testing.T) {
	tr := trace.New(16, 0)
	var jsonl bytes.Buffer
	tr.SetSink(&jsonl)
	at := time.Date(2022, 7, 1, 0, 0, 0, 0, time.UTC)
	id := trace.TraceID(0x1122334455667788)
	tr.EmitPacket(at, "0002", trace.KindInterest, id, "interest %q nonce=%d hops=%d", "city/7/air", 258, 0)
	tr.EmitPacket(at.Add(time.Second), "0009", trace.KindData, id, "data %q hops=%d", "city/7/air", 1)
	tr.Emit(at.Add(2*time.Second), "0004", trace.KindSlotBeacon, "beacon slot=1")

	run := func(kind string) string {
		t.Helper()
		var out bytes.Buffer
		if err := dumpEvents(&out, bytes.NewReader(jsonl.Bytes()), "", kind, ""); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	for kind, want := range map[string]string{
		"interest":    "interest \"city/7/air\"",
		"data":        "data \"city/7/air\"",
		"slot-beacon": "beacon slot=1",
	} {
		out := run(kind)
		if !strings.Contains(out, "1 of 3 events") || !strings.Contains(out, want) {
			t.Errorf("-kind %s filter:\n%s", kind, out)
		}
	}
}

func TestDumpSpansCacheHit(t *testing.T) {
	// A cache-hit journey as the ICN engine records it: requester tx,
	// cache node rx + cache-hit + data tx, requester rx + deliver.
	tr := trace.New(0, 32)
	var jsonl bytes.Buffer
	tr.SetSink(&jsonl)
	at := time.Date(2022, 7, 1, 0, 0, 0, 0, time.UTC)
	id := trace.TraceID(0x9c4f21aa03b7e5d1)
	tr.EmitSeg(at, "0001", trace.KindSpan, id, span.SegEnqueue.String(), 0, "INTEREST")
	tr.EmitSeg(at.Add(10*time.Millisecond), "0001", trace.KindSpan, id, span.SegAirtime.String(), 41*time.Millisecond, "INTEREST")
	tr.EmitSeg(at.Add(51*time.Millisecond), "0003", trace.KindSpan, id, span.SegRx.String(), 0, "INTEREST")
	tr.EmitSeg(at.Add(52*time.Millisecond), "0003", trace.KindSpan, id, span.SegCacheHit.String(), 0, "city/7/air")
	tr.EmitSeg(at.Add(60*time.Millisecond), "0003", trace.KindSpan, id, span.SegAirtime.String(), 46*time.Millisecond, "NAMED_DATA")
	tr.EmitSeg(at.Add(106*time.Millisecond), "0001", trace.KindSpan, id, span.SegRx.String(), 0, "NAMED_DATA")
	tr.EmitSeg(at.Add(107*time.Millisecond), "0001", trace.KindSpan, id, span.SegDeliver.String(), 0, "NAMED_DATA")

	var out bytes.Buffer
	if err := dumpSpans(&out, bytes.NewReader(jsonl.Bytes()), "all", ""); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"cache-hit", "city/7/air", "hop 0003", "delivered"} {
		if !strings.Contains(got, want) {
			t.Errorf("span tree missing %q:\n%s", want, got)
		}
	}
}

// sealedHex seals p (plaintext payload) under key, as its origin p.Src
// would, and returns the frame as hex, exactly as a capture would
// present it.
func sealedHex(t testing.TB, key meshsec.Key, p *packet.Packet) string {
	t.Helper()
	p.Secured, p.SecFlags = true, packet.SecFlagEncrypted
	frame, err := packet.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := meshsec.NewLink(key, p.Src).SealFrame(frame, p); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(frame)
}

func TestDumpSecuredFrames(t *testing.T) {
	key := meshsec.Key{
		0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
		0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c,
	}
	frame := sealedHex(t, key, &packet.Packet{
		Dst: 0x0002, Src: 0x0001, Via: 0x0002, Type: packet.TypeData,
		Payload: []byte("hello mesh"), Counter: 7,
	})

	// Without a key: the frame parses but stays opaque.
	var sb strings.Builder
	if err := dump(&sb, frame, loraphy.DefaultParams(), nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "unauthenticated (no key") {
		t.Errorf("keyless dump missing the no-key notice:\n%s", sb.String())
	}
	if strings.Contains(sb.String(), "hello mesh") {
		t.Errorf("keyless dump leaked plaintext:\n%s", sb.String())
	}

	// With the key: auth ok, decrypted payload, and the second copy of
	// the same frame is called out as a replay.
	link := meshsec.NewLink(key, 0)
	sb.Reset()
	if err := dump(&sb, frame, loraphy.DefaultParams(), link); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "auth ok, counter 7 fresh") {
		t.Errorf("dump missing auth verdict:\n%s", out)
	}
	if !strings.Contains(out, "hello mesh") {
		t.Errorf("dump missing decrypted payload:\n%s", out)
	}
	sb.Reset()
	if err := dump(&sb, frame, loraphy.DefaultParams(), link); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "REPLAY") {
		t.Errorf("second copy not flagged as replay:\n%s", sb.String())
	}

	// A tampered MIC fails authentication.
	raw, _ := hex.DecodeString(frame)
	raw[len(raw)-1] ^= 0x01
	sb.Reset()
	if err := dump(&sb, hex.EncodeToString(raw), loraphy.DefaultParams(), link); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "auth FAILED") {
		t.Errorf("tampered frame not flagged:\n%s", sb.String())
	}

	// The wrong key also fails authentication.
	other := meshsec.NewLink(meshsec.Key{1, 2, 3}, 0)
	sb.Reset()
	if err := dump(&sb, frame, loraphy.DefaultParams(), other); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "auth FAILED") {
		t.Errorf("wrong-key dump not flagged:\n%s", sb.String())
	}

	// Legacy plaintext frames are untouched by the key path.
	plain := encodeHex(t, &packet.Packet{
		Dst: 0x0002, Src: 0x0001, Via: 0x0002, Type: packet.TypeData, Payload: []byte("plain"),
	})
	sb.Reset()
	if err := dump(&sb, plain, loraphy.DefaultParams(), link); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"plain"`) || strings.Contains(sb.String(), "security:") {
		t.Errorf("plaintext frame dump changed under -key:\n%s", sb.String())
	}
}

// TestDumpOutOfOrderHello holds packetdump's verdict to a node's: a HELLO
// whose counter is below its origin's highest was never seen, so the
// reordering window would admit it, but a node drops it as a replay
// (beacons get strict freshness). Data at the same counter is fresh.
func TestDumpOutOfOrderHello(t *testing.T) {
	key := meshsec.Key{0x42}
	payload, err := packet.MarshalHello([]packet.HelloEntry{{Addr: 0x1234, Metric: 1}})
	if err != nil {
		t.Fatal(err)
	}
	hello := func(counter uint32) string {
		return sealedHex(t, key, &packet.Packet{
			Dst: packet.Broadcast, Src: 0x0001, Type: packet.TypeHello,
			Payload: payload, Counter: counter,
		})
	}
	data := sealedHex(t, key, &packet.Packet{
		Dst: 0x0002, Src: 0x0001, Via: 0x0002, Type: packet.TypeData,
		Payload: []byte("late data"), Counter: 8,
	})
	link := meshsec.NewLink(key, 0)
	for _, c := range []struct {
		frame, want string
	}{
		{hello(9), "counter 9 fresh"},
		{hello(8), "counter 8 REPLAY"},
		{data, "counter 8 fresh"},
	} {
		var sb strings.Builder
		if err := dump(&sb, c.frame, loraphy.DefaultParams(), link); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(sb.String(), c.want) {
			t.Errorf("want %q:\n%s", c.want, sb.String())
		}
	}
}
