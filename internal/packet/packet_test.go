package packet

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"testing/quick"
)

func TestHeaderLens(t *testing.T) {
	tests := []struct {
		typ  Type
		want int
	}{
		{TypeHello, 6},
		{TypeData, 8},
		{TypeDataAck, 11},
		{TypeSync, 11},
		{TypeXLData, 11},
		{TypeAck, 11},
		{TypeLost, 11},
	}
	for _, tt := range tests {
		if got := HeaderLen(tt.typ); got != tt.want {
			t.Errorf("HeaderLen(%v) = %d, want %d", tt.typ, got, tt.want)
		}
		if got := MaxPayload(tt.typ); got != MaxFrameLen-tt.want {
			t.Errorf("MaxPayload(%v) = %d, want %d", tt.typ, got, MaxFrameLen-tt.want)
		}
	}
}

func TestTypePredicates(t *testing.T) {
	if TypeHello.Routed() {
		t.Error("HELLO must not be routed")
	}
	for _, typ := range []Type{TypeData, TypeDataAck, TypeSync, TypeXLData, TypeAck, TypeLost} {
		if !typ.Routed() {
			t.Errorf("%v must be routed", typ)
		}
	}
	for _, typ := range []Type{TypeSync, TypeXLData, TypeAck, TypeLost, TypeDataAck} {
		if !typ.Stream() {
			t.Errorf("%v must be a stream type", typ)
		}
	}
	if TypeData.Stream() || TypeHello.Stream() {
		t.Error("DATA and HELLO must not be stream types")
	}
	if Type(0x77).Valid() {
		t.Error("0x77 must be invalid")
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	pkts := []*Packet{
		{Dst: Broadcast, Src: 0x1234, Type: TypeHello, Payload: []byte{0, 1, 2, 3}},
		{Dst: 0xAAAA, Src: 0xBBBB, Type: TypeData, Via: 0xCCCC, Payload: []byte("hello mesh")},
		{Dst: 1, Src: 2, Type: TypeSync, Via: 3, SeqID: 9, Number: 17},
		{Dst: 1, Src: 2, Type: TypeXLData, Via: 3, SeqID: 9, Number: 4, Payload: bytes.Repeat([]byte{0xEE}, 100)},
		{Dst: 1, Src: 2, Type: TypeAck, Via: 3, SeqID: 9, Number: 4},
		{Dst: 1, Src: 2, Type: TypeLost, Via: 3, SeqID: 9, Number: 2},
		{Dst: 1, Src: 2, Type: TypeDataAck, Via: 3, SeqID: 1, Number: 1, Payload: []byte("x")},
	}
	for _, p := range pkts {
		buf, err := Marshal(p)
		if err != nil {
			t.Fatalf("Marshal(%v): %v", p, err)
		}
		if len(buf) != p.WireLen() {
			t.Errorf("%v encoded to %d bytes, WireLen says %d", p.Type, len(buf), p.WireLen())
		}
		if int(buf[5]) != len(buf) {
			t.Errorf("%v size field %d != frame %d", p.Type, buf[5], len(buf))
		}
		got, err := Unmarshal(buf)
		if err != nil {
			t.Fatalf("Unmarshal(%v): %v", p.Type, err)
		}
		if got.Dst != p.Dst || got.Src != p.Src || got.Type != p.Type ||
			got.Via != p.Via || got.SeqID != p.SeqID || got.Number != p.Number ||
			!bytes.Equal(got.Payload, p.Payload) {
			t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, p)
		}
	}
}

func TestMarshalRejectsOversize(t *testing.T) {
	p := &Packet{Type: TypeData, Payload: make([]byte, MaxPayload(TypeData)+1)}
	if _, err := Marshal(p); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversize: err = %v, want ErrTooLarge", err)
	}
	p.Payload = p.Payload[:MaxPayload(TypeData)]
	if _, err := Marshal(p); err != nil {
		t.Errorf("exactly max payload: %v", err)
	}
}

func TestMarshalRejectsBadType(t *testing.T) {
	p := &Packet{Type: 0x55}
	if _, err := Marshal(p); !errors.Is(err, ErrBadType) {
		t.Errorf("bad type: err = %v, want ErrBadType", err)
	}
}

func TestUnmarshalRejectsCorrupt(t *testing.T) {
	good, err := Marshal(&Packet{Dst: 1, Src: 2, Type: TypeData, Via: 3, Payload: []byte("ok")})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := Unmarshal(good[:3]); !errors.Is(err, ErrTruncated) {
		t.Errorf("short frame: err = %v, want ErrTruncated", err)
	}

	badType := append([]byte(nil), good...)
	badType[4] = 0x99
	if _, err := Unmarshal(badType); !errors.Is(err, ErrBadType) {
		t.Errorf("bad type byte: err = %v, want ErrBadType", err)
	}

	badSize := append([]byte(nil), good...)
	badSize[5] = byte(len(badSize) + 1)
	if _, err := Unmarshal(badSize); !errors.Is(err, ErrBadSize) {
		t.Errorf("bad size field: err = %v, want ErrBadSize", err)
	}

	// Stream header truncated: claim SYNC but cut after via.
	trunc := []byte{0, 1, 0, 2, byte(TypeSync), 8, 0, 3}
	if _, err := Unmarshal(trunc); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated stream header: err = %v, want ErrTruncated", err)
	}

	long := make([]byte, MaxFrameLen+1)
	if _, err := Unmarshal(long); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversize frame: err = %v, want ErrTooLarge", err)
	}
}

// TestUnmarshalNeverPanics fuzzes the decoder with arbitrary bytes via
// testing/quick; any input must yield a packet or an error, never a panic.
func TestUnmarshalNeverPanics(t *testing.T) {
	f := func(buf []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		p, err := Unmarshal(buf)
		return (p != nil) != (err != nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestMarshalRoundTripProperty: any valid packet round-trips exactly.
func TestMarshalRoundTripProperty(t *testing.T) {
	types := []Type{TypeHello, TypeData, TypeDataAck, TypeSync, TypeXLData, TypeAck, TypeLost}
	f := func(dst, src, via uint16, typIdx uint8, seq uint8, num uint16, payload []byte) bool {
		typ := types[int(typIdx)%len(types)]
		if len(payload) > MaxPayload(typ) {
			payload = payload[:MaxPayload(typ)]
		}
		p := &Packet{Dst: Address(dst), Src: Address(src), Type: typ, Payload: payload}
		if typ.Routed() {
			p.Via = Address(via)
		}
		if typ.Stream() {
			p.SeqID = seq
			p.Number = num
		}
		buf, err := Marshal(p)
		if err != nil {
			return false
		}
		got, err := Unmarshal(buf)
		if err != nil {
			return false
		}
		return got.Dst == p.Dst && got.Src == p.Src && got.Type == p.Type &&
			got.Via == p.Via && got.SeqID == p.SeqID && got.Number == p.Number &&
			bytes.Equal(got.Payload, p.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestClone(t *testing.T) {
	p := &Packet{Dst: 1, Src: 2, Type: TypeData, Via: 3, Payload: []byte{1, 2, 3}}
	q := p.Clone()
	q.Via = 9
	q.Payload[0] = 99
	if p.Via != 3 || p.Payload[0] != 1 {
		t.Error("Clone shares state with original")
	}
	empty := &Packet{Type: TypeHello}
	if c := empty.Clone(); c.Payload != nil {
		t.Error("Clone of nil payload should stay nil")
	}
}

func TestHelloRoundTrip(t *testing.T) {
	entries := []HelloEntry{
		{Addr: 0x1111, Metric: 1, Role: RoleDefault},
		{Addr: 0x2222, Metric: 3, Role: RoleSink},
		{Addr: 0x3333, Metric: 255, Role: RoleGateway},
	}
	buf, err := MarshalHello(entries)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalHello(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("decoded %d entries, want %d", len(got), len(entries))
	}
	for i := range entries {
		if got[i] != entries[i] {
			t.Errorf("entry %d = %+v, want %+v", i, got[i], entries[i])
		}
	}
}

func TestHelloLimits(t *testing.T) {
	big := make([]HelloEntry, MaxHelloEntries+1)
	if _, err := MarshalHello(big); err == nil {
		t.Error("oversize hello: want error")
	}
	exact := make([]HelloEntry, MaxHelloEntries)
	buf, err := MarshalHello(exact)
	if err != nil {
		t.Fatalf("exact-size hello: %v", err)
	}
	// The full HELLO must still fit in a frame.
	p := &Packet{Dst: Broadcast, Src: 1, Type: TypeHello, Payload: buf}
	if _, err := Marshal(p); err != nil {
		t.Fatalf("max hello does not fit in frame: %v", err)
	}
	if _, err := UnmarshalHello([]byte{1, 2, 3}); err == nil {
		t.Error("ragged hello payload: want error")
	}
}

// TestAppendHelloSenderRole pins the role AppendHello reads for a beacon's
// sender in the decode pass: its own row's, the last if it repeats, and
// RoleDefault when the rows list none. The rows decode onto dst whatever
// the sender, and a ragged payload is refused.
func TestAppendHelloSenderRole(t *testing.T) {
	rows := []HelloEntry{
		{Addr: 7, Role: RoleSink},
		{Addr: 3, Metric: 1, Role: RoleGateway},
		{Addr: 7, Metric: 2, Role: RoleGateway},
	}
	payload, err := MarshalHello(rows)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]HelloEntry, 0, len(rows))
	for _, tc := range []struct {
		src  Address
		want Role
	}{{7, RoleGateway}, {3, RoleGateway}, {9, RoleDefault}} {
		got, role, err := AppendHello(buf[:0], payload, tc.src)
		if err != nil || role != tc.want || !slices.Equal(got, rows) {
			t.Errorf("AppendHello from %v = %v, %v, %v; want %v, %v", tc.src, got, role, err, rows, tc.want)
		}
	}
	if _, _, err := AppendHello(buf[:0], payload[:len(payload)-1], 7); err == nil {
		t.Error("ragged hello payload: want error")
	}
}

func TestHelloRoundTripProperty(t *testing.T) {
	f := func(addrs []uint16, metrics []uint8) bool {
		n := len(addrs)
		if len(metrics) < n {
			n = len(metrics)
		}
		if n > MaxHelloEntries {
			n = MaxHelloEntries
		}
		entries := make([]HelloEntry, n)
		for i := 0; i < n; i++ {
			entries[i] = HelloEntry{Addr: Address(addrs[i]), Metric: metrics[i], Role: RoleDefault}
		}
		buf, err := MarshalHello(entries)
		if err != nil {
			return false
		}
		got, err := UnmarshalHello(buf)
		if err != nil || len(got) != n {
			return false
		}
		for i := range entries {
			if got[i] != entries[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestStrings(t *testing.T) {
	p := &Packet{Dst: 0x00FF, Src: 0x1234, Type: TypeSync, Via: 0x1111, SeqID: 3, Number: 7}
	want := "SYNC 1234->00FF via 1111 seq=3 num=7 len=11"
	if got := p.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if RoleSink.String() != "sink" || RoleGateway.String() != "gateway" || RoleDefault.String() != "default" {
		t.Error("role strings wrong")
	}
}

func BenchmarkMarshal(b *testing.B) {
	p := &Packet{Dst: 1, Src: 2, Type: TypeXLData, Via: 3, SeqID: 1, Number: 1,
		Payload: bytes.Repeat([]byte{7}, 200)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Marshal(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	buf, err := Marshal(&Packet{Dst: 1, Src: 2, Type: TypeXLData, Via: 3, SeqID: 1, Number: 1,
		Payload: bytes.Repeat([]byte{7}, 200)})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}
