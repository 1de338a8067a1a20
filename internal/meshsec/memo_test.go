package meshsec

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/packet"
)

// fleetPair is one listener in two fleets kept in lockstep: shared opens
// through the fleet's common Memo, private through none.
type fleetPair struct {
	shared, private *Link
}

// TestSharedMemoMatchesPrivate drives two fleets of listeners through one
// random script — seals from several origins, each frame heard by several
// listeners back to back, single-byte flips in the AAD fields, the
// ciphertext and the MIC, replays, stale HELLOs, and Stage/Rotate/
// RetirePrev on random subsets of listeners so they disagree on the
// current key — and requires every Open to give the same error and
// plaintext in both fleets, and every listener the same ReplayStats.
// After every step the Memo's shared sessions must be those a private
// Link derives, under at most memoKeys distinct keys, although the script
// rotates through more keys than that.
func TestSharedMemoMatchesPrivate(t *testing.T) {
	keys := []Key{testKey(0x11), testKey(0x22), testKey(0x33), testKey(0x44), testKey(0x55)}
	types := []packet.Type{packet.TypeData, packet.TypeHello, packet.TypeXLData}
	rng := rand.New(rand.NewSource(7))
	memo := new(Memo)
	var fleet []fleetPair
	for a := packet.Address(0x0100); a < 0x0108; a++ {
		f := fleetPair{NewLink(keys[0], a), NewLink(keys[0], a)}
		f.shared.ShareMemo(memo)
		fleet = append(fleet, f)
	}
	var senders []*Link
	for _, a := range []packet.Address{0x0001, 0x0700, 0x0030, 0xFFFE} {
		senders = append(senders, NewLink(keys[0], a))
	}
	// subset returns a random non-empty run of listeners in random order.
	subset := func() []fleetPair {
		out := make([]fleetPair, 0, len(fleet))
		for _, i := range rng.Perm(len(fleet)) {
			if rng.Intn(2) == 0 {
				out = append(out, fleet[i])
			}
		}
		if len(out) == 0 {
			out = append(out, fleet[rng.Intn(len(fleet))])
		}
		return out
	}
	var sent [][]byte
	var hits, opened, authFails, replays int
	hear := func(frame []byte) {
		for _, f := range subset() {
			p, err := packet.Unmarshal(bytes.Clone(frame))
			if err != nil || !p.Secured {
				return // the codec refuses it before the security layer sees it
			}
			q, _ := packet.Unmarshal(bytes.Clone(frame))
			var aad [13]byte
			secAAD(p, &aad)
			if _, hit := memo.lookup(&f.shared.cur, &aad, p); hit {
				hits++
			}
			err, privErr := f.shared.Open(p), f.private.Open(q)
			if err != privErr {
				t.Fatalf("listener %v opens % x: shared memo %v, private %v", f.shared.addr, frame, err, privErr)
			}
			switch err {
			case nil:
				opened++
				if !bytes.Equal(p.Payload, q.Payload) {
					t.Fatalf("listener %v opens % x: shared memo % x, private % x", f.shared.addr, frame, p.Payload, q.Payload)
				}
			case ErrAuth:
				authFails++
			case ErrReplay:
				replays++
			}
			so, socc, shigh := f.shared.ReplayStats()
			po, pocc, phigh := f.private.ReplayStats()
			if so != po || socc != pocc || shigh != phigh {
				t.Fatalf("listener %v ReplayStats: shared memo %d %d %d, private %d %d %d",
					f.shared.addr, so, socc, shigh, po, pocc, phigh)
			}
		}
	}

	tabled := map[Key]bool{} // every key the memo has held sessions under
	checkTable := func(step int) {
		held := map[Key]bool{}
		for _, ks := range memo.sessions {
			if ks.byAddr == nil {
				continue
			}
			if held[ks.key] {
				t.Fatalf("step %d: the memo holds key %v twice", step, ks.key)
			}
			held[ks.key], tabled[ks.key] = true, true
			for addr, st := range ks.byAddr {
				want, err := derive(&ks.key, addr)
				if err != nil || st.k1 != want.k1 || st.k2 != want.k2 {
					t.Fatalf("step %d: shared session of %v under %v differs from a private derivation", step, addr, ks.key)
				}
			}
		}
	}
	rotations := 0
	for step := 0; step < 6000; step++ {
		checkTable(step)
		switch op := rng.Intn(20); {
		case op == 0:
			k := keys[rng.Intn(len(keys))]
			for _, f := range subset() {
				f.shared.Stage(k)
				f.private.Stage(k)
			}
		case op == 1:
			k := keys[rng.Intn(len(keys))]
			for _, f := range subset() {
				f.shared.Rotate(k)
				f.private.Rotate(k)
			}
			rotations++
		case op == 2:
			for _, f := range subset() {
				f.shared.RetirePrev()
				f.private.RetirePrev()
			}
		case op == 3:
			senders[rng.Intn(len(senders))].Rotate(keys[rng.Intn(len(keys))])
		case op < 6 && len(sent) > 0:
			// A replay, and for a HELLO that has since been superseded by
			// a fresher one from its origin, a stale beacon.
			hear(sent[rng.Intn(len(sent))])
		case op < 10 && len(sent) > 0:
			// The last frame, right after it was heard, so the memo still
			// holds it, with one byte flipped in the AAD fields, the
			// ciphertext or the MIC.
			frame := bytes.Clone(sent[len(sent)-1])
			p, _ := packet.Unmarshal(frame)
			micAt := len(frame) - packet.SecMICLen
			ctAt := micAt - len(p.Payload)
			var at int
			switch r := rng.Intn(3); {
			case r == 0:
				at = rng.Intn(ctAt) // header: every AAD field, and the hop-local via
			case r == 1 && ctAt < micAt:
				at = ctAt + rng.Intn(micAt-ctAt)
			default:
				at = micAt + rng.Intn(packet.SecMICLen)
			}
			frame[at] ^= byte(1 << rng.Intn(8))
			hear(frame)
		default:
			s := senders[rng.Intn(len(senders))]
			typ := types[rng.Intn(len(types))]
			size := rng.Intn(packet.MaxPayload(typ) - packet.SecOverhead + 1)
			p := &packet.Packet{Dst: 0x0100, Src: s.Addr(), Via: 0x0100, Type: typ,
				Payload: make([]byte, size), Secured: true, Counter: s.NextCounter()}
			rng.Read(p.Payload)
			if typ == packet.TypeHello {
				p.Dst, p.Via = packet.Broadcast, 0
			}
			if typ.Stream() {
				p.SeqID, p.Number = uint8(rng.Intn(256)), uint16(rng.Intn(1<<16))
			}
			if rng.Intn(4) != 0 {
				p.SecFlags = packet.SecFlagEncrypted
			}
			frame, err := packet.Marshal(p)
			if err == nil {
				err = s.SealFrame(frame, p)
			}
			if err != nil {
				t.Fatal(err)
			}
			sent = append(sent, frame)
			hear(frame)
		}
	}
	t.Logf("opens: %d authenticated (%d by a memo hit), %d auth failures, %d replays", opened, hits, authFails, replays)
	if hits == 0 || authFails == 0 || replays == 0 || hits == opened {
		t.Errorf("the script does not cover hits, misses, auth failures and replays")
	}
	if rotations < 5 || len(tabled) <= memoKeys {
		t.Errorf("%d rotations, sessions under %d keys: the script does not make the memo drop a key's sessions", rotations, len(tabled))
	}
}

// TestForgedFramesLeaveNoState: frames sealed under a key the listeners
// do not hold, each from a new origin address, fail authentication and
// leave nothing behind: no origin slot in a Link alone or in one sharing a
// Memo, no session in the Memo, no heap. A legitimate frame from one of
// those addresses then opens and gets its slot.
func TestForgedFramesLeaveNoState(t *testing.T) {
	const forged, perOrigin = 2000, 16
	good, bad := testKey(0x11), testKey(0x99)
	memo := new(Memo)
	alone, shared := NewLink(good, 0x0100), NewLink(good, 0x0101)
	shared.ShareMemo(memo)
	frames, copies := make([]*packet.Packet, forged), make([]*packet.Packet, forged)
	for i := range frames {
		frames[i] = sealedFrames(t, NewLink(bad, packet.Address(0x1000+i)), packet.TypeData, 24, 1)[0]
		copies[i] = clonePacket(frames[i])
	}
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	for i := range frames {
		if err := alone.Open(frames[i]); err != ErrAuth {
			t.Fatalf("forged frame %d, alone: %v, want ErrAuth", i, err)
		}
		if err := shared.Open(copies[i]); err != ErrAuth {
			t.Fatalf("forged frame %d, memo: %v, want ErrAuth", i, err)
		}
	}
	grown := heap() - before
	runtime.KeepAlive(frames)
	runtime.KeepAlive(copies)
	if n := len(alone.origins) + len(shared.origins); n != 0 {
		t.Errorf("%d forged origins left %d slots, want none", forged, n)
	}
	if n := len(memo.table(&good, false)); n != 0 {
		t.Errorf("%d forged origins left %d shared sessions, want none", forged, n)
	}
	if grown > perOrigin*forged {
		t.Errorf("%d forged origins grew the heap %d B (%.0f B each), want at most %d B each",
			forged, grown, float64(grown)/forged, perOrigin)
	}

	p := sealedFrames(t, NewLink(good, 0x1000), packet.TypeData, 24, 1)[0]
	for _, l := range []*Link{alone, shared} {
		if err := l.Open(clonePacket(p)); err != nil {
			t.Fatalf("legitimate frame from a forged address: %v", err)
		}
		if len(l.origins) != 1 || l.origins[0].addr != 0x1000 || !l.origins[0].windowed {
			t.Errorf("after a legitimate frame: %d slots, want one for 0x1000", len(l.origins))
		}
	}
	if n := len(memo.table(&good, false)); n != 1 {
		t.Errorf("after a legitimate frame: %d shared sessions, want 1", n)
	}
}
