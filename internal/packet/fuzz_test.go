package packet

import (
	"bytes"
	"testing"
)

// FuzzUnmarshal drives the frame decoder with arbitrary bytes: it must
// never panic, and every frame it accepts must re-encode to the identical
// bytes (decode/encode is the identity on valid frames).
func FuzzUnmarshal(f *testing.F) {
	seed := []*Packet{
		{Dst: Broadcast, Src: 1, Type: TypeHello, Payload: []byte{0, 2, 1, 1}},
		{Dst: 2, Src: 1, Type: TypeData, Via: 3, Payload: []byte("hi")},
		{Dst: 2, Src: 1, Type: TypeSync, Via: 3, SeqID: 4, Number: 9, Payload: []byte{0, 0, 1, 0}},
		{Dst: 2, Src: 1, Type: TypeAck, Via: 3, SeqID: 4, Number: 1},
	}
	for _, p := range seed {
		buf, err := Marshal(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0x00, 0x01, 0x04})

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Unmarshal(data)
		if err != nil {
			return
		}
		out, err := Marshal(p)
		if err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v (%+v)", err, p)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("decode/encode not identity:\n in  %x\n out %x", data, out)
		}
	})
}

// FuzzUnmarshalHello checks the HELLO payload decoder never panics and
// round-trips whatever it accepts.
func FuzzUnmarshalHello(f *testing.F) {
	good, err := MarshalHello([]HelloEntry{{Addr: 1, Metric: 2, Role: RoleSink}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := UnmarshalHello(data)
		if err != nil {
			return
		}
		out, err := MarshalHello(entries)
		if err != nil {
			t.Fatalf("accepted hello failed to re-encode: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("hello decode/encode not identity:\n in  %x\n out %x", data, out)
		}
	})
}

// FuzzStrategyPayloads drives the strategy payload codecs both ways:
// decoding arbitrary bytes never panics and re-encodes whatever it
// accepts to the identical bytes, and every header the fuzzer builds
// decodes back to itself.
func FuzzStrategyPayloads(f *testing.F) {
	f.Add(Breadcrumb{ID: 258, Hops: 3, PrevHop: 7}.Append(nil), uint16(1), uint8(2), uint16(3), "city/7/air", []byte("21.5C"))
	f.Add(NamedData{Producer: 9, Hops: 2, Name: "city/7/air", Content: []byte("21.5C")}.Append(nil), uint16(0), uint8(0), uint16(0), "", []byte{})
	f.Add(SlotBeacon{Slots: 3, Slot: 1, Depth: 2}.Append(nil), uint16(0xFFFF), uint8(255), uint16(0xFFFF), "n", []byte(nil))
	f.Add([]byte{0x00, 0x09, 2, 200, 'x'}, uint16(0), uint8(0), uint16(0), "", []byte(nil))
	f.Add([]byte{}, uint16(0), uint8(0), uint16(0), "", []byte(nil))

	f.Fuzz(func(t *testing.T, data []byte, id uint16, hops uint8, prev uint16, name string, content []byte) {
		if b, rest, err := UnmarshalBreadcrumb(data); err == nil {
			if out := append(b.Append(nil), rest...); !bytes.Equal(out, data) {
				t.Fatalf("breadcrumb decode/encode not identity:\n in  %x\n out %x", data, out)
			}
		}
		if d, err := UnmarshalNamedData(data); err == nil {
			if out := d.Append(nil); !bytes.Equal(out, data) {
				t.Fatalf("named-data decode/encode not identity:\n in  %x\n out %x", data, out)
			}
		}
		if s, err := UnmarshalSlotBeacon(data); err == nil {
			if out := s.Append(nil); !bytes.Equal(out, data) {
				t.Fatalf("slot-beacon decode/encode not identity:\n in  %x\n out %x", data, out)
			}
		}

		b := Breadcrumb{ID: id, Hops: hops, PrevHop: Address(prev)}
		gotB, tail, err := UnmarshalBreadcrumb(append(b.Append(nil), name...))
		if err != nil || gotB != b || string(tail) != name {
			t.Fatalf("breadcrumb %+v + %q decoded as %+v + %q, %v", b, name, gotB, tail, err)
		}
		s := SlotBeacon{Slots: uint8(id), Slot: uint8(id >> 8), Depth: hops}
		if gotS, err := UnmarshalSlotBeacon(s.Append(nil)); err != nil || gotS != s {
			t.Fatalf("slot beacon %+v decoded as %+v, %v", s, gotS, err)
		}
		if len(name) > 255 {
			return // the name rides a length byte
		}
		d := NamedData{Producer: Address(prev), Hops: hops, Name: name, Content: content}
		gotD, err := UnmarshalNamedData(d.Append(nil))
		if err != nil || gotD.Producer != d.Producer || gotD.Hops != d.Hops ||
			gotD.Name != d.Name || !bytes.Equal(gotD.Content, d.Content) {
			t.Fatalf("named data %+v decoded as %+v, %v", d, gotD, err)
		}
	})
}
