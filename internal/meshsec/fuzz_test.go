package meshsec

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/packet"
)

// FuzzOpen seals a frame, XORs mask into one byte of it and hands it to a
// fresh receiver. A frame whose authenticated view — the AAD, the
// ciphertext, the MIC — is untouched (mask 0, or a flip inside the
// hop-local via) must open exactly once, to the plaintext that was
// sealed; any other frame the codec still parses must fail Open. Nothing
// panics. (A forged frame passes the 32-bit MIC once in 2^32 tries; a
// lone crasher that does not reproduce on a second mask is that.)
//
// A second arm opens the frame on a Link sharing a Memo that another
// listener primed with the legitimate frame: its verdict and plaintext
// must equal the fresh private receiver's, so a hit never stands in for
// bytes that differ from the remembered ones.
func FuzzOpen(f *testing.F) {
	types := []packet.Type{packet.TypeData, packet.TypeHello, packet.TypeXLData}
	f.Add([]byte("payload"), uint32(1), uint8(0), true, uint16(0), uint8(0))       // untouched
	f.Add([]byte("payload"), uint32(9), uint8(0), true, uint16(11), uint8(0x40))   // via: not authenticated
	f.Add([]byte("payload"), uint32(9), uint8(0), false, uint16(1), uint8(1))      // dst
	f.Add([]byte("payload"), uint32(9), uint8(0), true, uint16(4), uint8(0x80))    // secured bit
	f.Add([]byte("payload"), uint32(9), uint8(0), true, uint16(6), uint8(1))       // encrypted flag
	f.Add([]byte("payload"), uint32(9), uint8(1), true, uint16(10), uint8(1))      // counter, on a beacon
	f.Add([]byte("payload"), uint32(9), uint8(2), true, uint16(13), uint8(0xFF))   // stream seqID
	f.Add([]byte("payload"), uint32(9), uint8(2), false, uint16(0xFFFF), uint8(2)) // somewhere in the tail
	f.Add([]byte{}, uint32(0xFFFFFFFF), uint8(0), true, uint16(14), uint8(1))      // empty payload: MIC
	f.Add([]byte("payload"), uint32(9), uint8(0), true, uint16(15), uint8(4))      // ciphertext

	f.Fuzz(func(t *testing.T, payload []byte, counter uint32, typ uint8, encrypt bool, pos uint16, mask uint8) {
		p := &packet.Packet{
			Dst: 0x0002, Src: 0x0001, Via: 0x0002, Type: types[int(typ)%len(types)],
			Payload: payload, Secured: true, Counter: counter,
		}
		if p.Type.Stream() {
			p.SeqID, p.Number = 7, 3
		}
		if encrypt {
			p.SecFlags = packet.SecFlagEncrypted
		}
		if counter == 0 || p.Validate() != nil {
			t.Skip() // counter 0 is never sent; an oversized payload never encodes
		}
		plain := append([]byte(nil), payload...)
		key := testKey(0x42)
		frame, err := packet.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := NewLink(key, p.Src).SealFrame(frame, p); err != nil {
			t.Fatal(err)
		}
		view := func(p *packet.Packet) string {
			var aad [13]byte
			secAAD(p, &aad)
			return string(aad[:]) + string(p.Payload) + string(p.MIC[:])
		}
		sealed, err := packet.Unmarshal(append([]byte(nil), frame...))
		if err != nil {
			t.Fatal(err)
		}
		want := view(sealed)

		frame[int(pos)%len(frame)] ^= mask
		rx, err := packet.Unmarshal(frame)
		if err != nil {
			return // the codec refused it before the security layer saw it
		}
		intact := rx.Secured && view(rx) == want
		memo := new(Memo)
		primer, shared := NewLink(key, p.Dst), NewLink(key, p.Dst)
		primer.ShareMemo(memo)
		shared.ShareMemo(memo)
		if err := primer.Open(sealed); err != nil {
			t.Fatalf("legitimate frame refused: %v", err)
		}
		rxShared, err := packet.Unmarshal(bytes.Clone(frame))
		if err != nil {
			t.Fatal(err)
		}
		sharedErr := shared.Open(rxShared)
		rxl := NewLink(key, p.Dst)
		err = rxl.Open(rx)
		if fmt.Sprint(sharedErr) != fmt.Sprint(err) || (err == nil && !bytes.Equal(rxShared.Payload, rx.Payload)) {
			t.Fatalf("frame % x: shared memo %v % x, private %v % x", frame, sharedErr, rxShared.Payload, err, rx.Payload)
		}
		if !intact {
			if err == nil {
				t.Fatalf("frame % x with byte %d ^ %#02x authenticated", frame, int(pos)%len(frame), mask)
			}
			return
		}
		if err != nil {
			t.Fatalf("intact frame refused: %v", err)
		}
		if !bytes.Equal(rx.Payload, plain) {
			t.Fatalf("opened to % x, sealed % x", rx.Payload, plain)
		}
		again, err := packet.Unmarshal(frame)
		if err != nil {
			t.Fatal(err)
		}
		if err := rxl.Open(again); err != ErrReplay {
			t.Fatalf("second Open of the same frame: %v, want ErrReplay", err)
		}
	})
}
