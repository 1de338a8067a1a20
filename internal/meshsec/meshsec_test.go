package meshsec

import (
	"bytes"
	"crypto/aes"
	"encoding/hex"
	"testing"
	"testing/quick"

	"repro/internal/packet"
)

func testKey(b byte) Key {
	var k Key
	for i := range k {
		k[i] = b
	}
	return k
}

// TestCMACVectors pins the CMAC implementation to the RFC 4493 test
// vectors (AES-128 key 2b7e...).
func TestCMACVectors(t *testing.T) {
	key, _ := hex.DecodeString("2b7e151628aed2a6abf7158809cf4f3c")
	msg, _ := hex.DecodeString(
		"6bc1bee22e409f96e93d7e117393172a" +
			"ae2d8a571e03ac9c9eb76fac45af8e51" +
			"30c81c46a35ce411")
	cases := []struct {
		n    int
		want string
	}{
		{0, "bb1d6929e95937287fa37d129b756746"},
		{16, "070a16b46b4d4144f79bdd9dd04a287c"},
		{40, "dfa66747de9ae63030ca32611497c827"},
	}
	b, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	var k1, k2 [16]byte
	cmacSubkeys(b, &k1, &k2)
	for _, c := range cases {
		var tag [16]byte
		cmac(b, &k1, &k2, msg[:c.n], &tag)
		if got := hex.EncodeToString(tag[:]); got != c.want {
			t.Errorf("cmac over %d bytes = %s, want %s", c.n, got, c.want)
		}
	}
}

func TestParseKey(t *testing.T) {
	k, err := ParseKey("000102030405060708090a0b0c0d0e0f")
	if err != nil {
		t.Fatal(err)
	}
	if k[0] != 0 || k[15] != 0x0f {
		t.Errorf("parsed key wrong: %v", k)
	}
	for _, bad := range []string{"", "0badc0ffee", "zz0102030405060708090a0b0c0d0e0f",
		"000102030405060708090a0b0c0d0e0f00"} {
		if _, err := ParseKey(bad); err == nil {
			t.Errorf("ParseKey(%q): want error", bad)
		}
	}
}

// sealUnmarshal marshals, seals, and re-parses a packet the way a
// receiver sees it on the air.
func sealUnmarshal(t *testing.T, l *Link, p *packet.Packet) (*packet.Packet, []byte) {
	t.Helper()
	frame, err := packet.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.SealFrame(frame, p); err != nil {
		t.Fatal(err)
	}
	rx, err := packet.Unmarshal(frame)
	if err != nil {
		t.Fatal(err)
	}
	return rx, frame
}

func securedPacket(l *Link, payload []byte) *packet.Packet {
	return &packet.Packet{
		Dst: 0x0002, Src: l.Addr(), Type: packet.TypeData, Via: 0x0002,
		Payload: payload,
		Secured: true, SecFlags: packet.SecFlagEncrypted, Counter: l.NextCounter(),
	}
}

func TestSealOpenRoundtrip(t *testing.T) {
	key := testKey(0x42)
	tx := NewLink(key, 0x0001)
	rxl := NewLink(key, 0x0002)
	payload := []byte("the quick brown fox")

	p := securedPacket(tx, append([]byte(nil), payload...))
	rx, frame := sealUnmarshal(t, tx, p)

	if bytes.Equal(rx.Payload, payload) {
		t.Fatal("payload went out in plaintext")
	}
	if err := rxl.Open(rx); err != nil {
		t.Fatalf("Open: %v", err)
	}
	if !bytes.Equal(rx.Payload, payload) {
		t.Fatalf("decrypted %q, want %q", rx.Payload, payload)
	}

	// The same bytes again are a replay.
	rx2, err := packet.Unmarshal(frame)
	if err != nil {
		t.Fatal(err)
	}
	if err := rxl.Open(rx2); err != ErrReplay {
		t.Fatalf("replayed frame: got %v, want ErrReplay", err)
	}
}

func TestOpenRejectsTampering(t *testing.T) {
	key := testKey(0x42)
	tx := NewLink(key, 0x0001)
	flip := func(mut func(f []byte)) error {
		rxl := NewLink(key, 0x0002)
		p := securedPacket(tx, []byte("payload"))
		frame, err := packet.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.SealFrame(frame, p); err != nil {
			t.Fatal(err)
		}
		mut(frame)
		frame[5] = byte(len(frame)) // keep the size field honest
		rx, err := packet.Unmarshal(frame)
		if err != nil {
			t.Fatal(err)
		}
		return rxl.Open(rx)
	}

	if err := flip(func(f []byte) {}); err != nil {
		t.Fatalf("untampered frame must open: %v", err)
	}
	cases := map[string]func(f []byte){
		"mic bit":     func(f []byte) { f[len(f)-1] ^= 0x01 },
		"payload bit": func(f []byte) { f[len(f)-5] ^= 0x80 },
		"counter":     func(f []byte) { f[10] ^= 0x01 },
		"dst":         func(f []byte) { f[1] ^= 0x01 },
		"src":         func(f []byte) { f[3] ^= 0x01 },
		"wrong key":   nil, // handled below
	}
	for name, mut := range cases {
		if mut == nil {
			continue
		}
		if err := flip(mut); err != ErrAuth {
			t.Errorf("%s flipped: got %v, want ErrAuth", name, err)
		}
	}

	// A receiver keyed differently must reject everything.
	other := NewLink(testKey(0x43), 0x0002)
	p := securedPacket(tx, []byte("payload"))
	rx, _ := sealUnmarshal(t, tx, p)
	if err := other.Open(rx); err != ErrAuth {
		t.Errorf("wrong key: got %v, want ErrAuth", err)
	}
}

// TestViaRewriteKeepsMIC proves the forwarder property: rewriting the
// hop-local via and re-sealing yields byte-identical ciphertext and MIC.
func TestViaRewriteKeepsMIC(t *testing.T) {
	key := testKey(0x42)
	tx := NewLink(key, 0x0001)
	fwd := NewLink(key, 0x0003)

	p := securedPacket(tx, []byte("hop hop"))
	_, frame1 := sealUnmarshal(t, tx, p)

	// The forwarder re-seals the plaintext clone with a different via.
	q := p.Clone()
	q.Via = 0x0004
	frame2, err := packet.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := fwd.SealFrame(frame2, q); err != nil {
		t.Fatal(err)
	}
	// Everything but the via bytes must match the origin's transmission.
	if !bytes.Equal(frame1[len(frame1)-packet.SecMICLen:], frame2[len(frame2)-packet.SecMICLen:]) {
		t.Error("MIC changed across a via rewrite")
	}
	start := packet.BaseHeaderLen + packet.SecHeaderLen + packet.ViaLen
	if !bytes.Equal(frame1[start:len(frame1)-packet.SecMICLen], frame2[start:len(frame2)-packet.SecMICLen]) {
		t.Error("ciphertext changed across a via rewrite")
	}
}

func TestRotateAcceptsPreviousKey(t *testing.T) {
	oldKey, newKey := testKey(0x11), testKey(0x22)
	tx := NewLink(oldKey, 0x0001) // not yet rotated
	rxl := NewLink(oldKey, 0x0002)
	rxl.Rotate(newKey)

	// Old-key traffic still opens after the receiver rotated.
	p := securedPacket(tx, []byte("before rotation"))
	rx, _ := sealUnmarshal(t, tx, p)
	if err := rxl.Open(rx); err != nil {
		t.Fatalf("old-key frame after Rotate: %v", err)
	}

	// After the sender rotates too, new-key traffic opens as well.
	tx.Rotate(newKey)
	p2 := securedPacket(tx, []byte("after rotation"))
	rx2, _ := sealUnmarshal(t, tx, p2)
	if err := rxl.Open(rx2); err != nil {
		t.Fatalf("new-key frame after Rotate: %v", err)
	}

	// A third key no one installed is rejected.
	strange := NewLink(testKey(0x33), 0x0001)
	strange.counter = tx.counter
	p3 := securedPacket(strange, []byte("stranger"))
	rx3, _ := sealUnmarshal(t, strange, p3)
	if err := rxl.Open(rx3); err != ErrAuth {
		t.Fatalf("unknown-key frame: got %v, want ErrAuth", err)
	}
}

// TestRetirePrev: the rotate grace period ends when the previous key is
// retired — old-key frames flip from accepted to ErrAuth, which is what
// the control plane's two-phase rekey commit relies on.
func TestRetirePrev(t *testing.T) {
	oldKey, newKey := testKey(0x11), testKey(0x22)
	tx := NewLink(oldKey, 0x0001) // still on the old key
	rxl := NewLink(oldKey, 0x0002)
	rxl.Rotate(newKey)

	p := securedPacket(tx, []byte("grace period"))
	rx, _ := sealUnmarshal(t, tx, p)
	if err := rxl.Open(rx); err != nil {
		t.Fatalf("old-key frame during grace: %v", err)
	}

	rxl.RetirePrev()
	p2 := securedPacket(tx, []byte("after commit"))
	rx2, _ := sealUnmarshal(t, tx, p2)
	if err := rxl.Open(rx2); err != ErrAuth {
		t.Fatalf("old-key frame after RetirePrev: got %v, want ErrAuth", err)
	}

	// Idempotent, and new-key traffic is unaffected.
	rxl.RetirePrev()
	tx.Rotate(newKey)
	p3 := securedPacket(tx, []byte("new key"))
	rx3, _ := sealUnmarshal(t, tx, p3)
	if err := rxl.Open(rx3); err != nil {
		t.Fatalf("new-key frame after RetirePrev: %v", err)
	}
}

// Property tests for the replay window (satellite: testing/quick).

// TestWindowFreshMonotonic: strictly increasing counters are all accepted.
func TestWindowFreshMonotonic(t *testing.T) {
	f := func(deltas []uint8) bool {
		var w window
		c := uint32(0)
		for _, d := range deltas {
			c += uint32(d) + 1 // strictly increasing
			if !w.admit(c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestWindowDuplicateReject: any admitted counter is rejected when
// presented again, regardless of what else was admitted in between.
func TestWindowDuplicateReject(t *testing.T) {
	f := func(counters []uint16) bool {
		var w window
		seen := make(map[uint32]bool)
		for _, c16 := range counters {
			c := uint32(c16) + 1
			ok := w.admit(c)
			if seen[c] && ok {
				return false // duplicate accepted
			}
			if ok {
				seen[c] = true
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestWindowInWindowAcceptOnce: out-of-order arrivals within the window
// are accepted exactly once; counters at or beyond the window edge are
// rejected.
func TestWindowInWindowAcceptOnce(t *testing.T) {
	f := func(top uint32, back uint16) bool {
		if top < WindowBits+1 {
			top += WindowBits + 1
		}
		if uint32(back) > top {
			return true // top-back would wrap around to the far future
		}
		var w window
		if !w.admit(top) {
			return false
		}
		c := top - uint32(back)
		if uint32(back) >= WindowBits {
			return !w.admit(c) // too old: always rejected
		}
		if back == 0 {
			return !w.admit(c) // duplicate of top
		}
		return w.admit(c) && !w.admit(c) // once, then never again
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestWindowFarFutureSlide: a far-future counter slides everything out;
// the counters admitted before it become too old.
func TestWindowFarFutureSlide(t *testing.T) {
	f := func(start uint16, jump uint32) bool {
		if jump < WindowBits {
			jump += WindowBits
		}
		var w window
		c := uint32(start) + 1
		if !w.admit(c) {
			return false
		}
		future := c + jump
		if future < c { // wrapped; skip degenerate case
			return true
		}
		if !w.admit(future) {
			return false
		}
		return !w.admit(c) // original now behind the window
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWindowZeroCounterRejected(t *testing.T) {
	var w window
	if w.admit(0) {
		t.Error("counter 0 must never be admitted")
	}
}

func TestNextCounterMonotonic(t *testing.T) {
	l := NewLink(testKey(1), 0x0001)
	prev := uint32(0)
	for i := 0; i < 1000; i++ {
		c := l.NextCounter()
		if c <= prev {
			t.Fatalf("counter went backwards: %d after %d", c, prev)
		}
		prev = c
	}
	if l.Counter() != prev {
		t.Errorf("Counter() = %d, want %d", l.Counter(), prev)
	}
}

func TestVerifyOnly(t *testing.T) {
	key := testKey(0x42)
	tx := NewLink(key, 0x0001)
	dump := NewLink(key, 0)

	p := securedPacket(tx, []byte("captured"))
	rx, _ := sealUnmarshal(t, tx, p)

	pt, ok := dump.VerifyOnly(rx)
	if !ok || string(pt) != "captured" {
		t.Fatalf("VerifyOnly = %q, %v", pt, ok)
	}
	bad := *rx
	bad.MIC[0] ^= 1
	if _, ok := dump.VerifyOnly(&bad); ok {
		t.Error("VerifyOnly accepted a flipped MIC")
	}
	// VerifyOnly leaves the window untouched: Open still admits the frame.
	if err := dump.Open(rx); err != nil {
		t.Errorf("Open after VerifyOnly: %v", err)
	}
}

func TestHelloStrictFreshness(t *testing.T) {
	// Beacons are admitted only when strictly fresher than anything yet
	// heard from their origin. The reordering window still applies to
	// data: an old-but-unseen DATA frame opens; the same-age HELLO is a
	// stale topology claim (a replayed beacon would install routes to
	// where the origin used to be) and must be rejected.
	key := testKey(0x42)
	tx := NewLink(key, 0x0001)
	rxl := NewLink(key, 0x0002)

	hello := func(c uint32) *packet.Packet {
		return &packet.Packet{
			Dst: packet.Broadcast, Src: tx.Addr(), Type: packet.TypeHello,
			Payload: []byte("beacon"), Secured: true, Counter: c,
		}
	}
	data := func(c uint32) *packet.Packet {
		return &packet.Packet{
			Dst: 0x0002, Src: tx.Addr(), Type: packet.TypeData, Via: 0x0002,
			Payload: []byte("payload"), Secured: true, Counter: c,
		}
	}

	// Capture frames with counters 1..5 but deliver only counter 5,
	// leaving 1..4 unseen-in-window — the wormhole corpus. Each replay
	// re-parses the captured bytes, the way a fresh reception would.
	raw := make(map[uint32][]byte)
	for c := uint32(1); c <= 5; c++ {
		tx.NextCounter()
		var p *packet.Packet
		if c%2 == 1 {
			p = hello(c)
		} else {
			p = data(c)
		}
		_, raw[c] = sealUnmarshal(t, tx, p)
	}
	replay := func(c uint32) *packet.Packet {
		rx, err := packet.Unmarshal(raw[c])
		if err != nil {
			t.Fatal(err)
		}
		return rx
	}
	if err := rxl.Open(replay(5)); err != nil {
		t.Fatalf("fresh HELLO (ctr 5): %v", err)
	}

	// Unseen in-window DATA still opens (reordering tolerance)...
	if err := rxl.Open(replay(2)); err != nil {
		t.Fatalf("in-window DATA (ctr 2): %v", err)
	}
	// ...but the equally unseen HELLO does not: it is stale by counter.
	if err := rxl.Open(replay(3)); err != ErrReplay {
		t.Fatalf("stale HELLO (ctr 3): got %v, want ErrReplay", err)
	}

	// A receiver that has never heard the origin live accepts the first
	// replayed beacon — freshness has no baseline yet. That residual
	// exposure is the documented limit of counter-based freshness.
	fresh := NewLink(key, 0x0003)
	if err := fresh.Open(replay(1)); err != nil {
		t.Fatalf("first-contact HELLO (ctr 1): %v", err)
	}
	// The corpus cannot re-poison it afterwards, even with later HELLOs
	// replayed in capture order below the newly heard top.
	if err := fresh.Open(replay(5)); err != nil {
		t.Fatalf("fresher HELLO (ctr 5): %v", err)
	}
	if err := fresh.Open(replay(3)); err != ErrReplay {
		t.Fatalf("re-poisoning HELLO (ctr 3): got %v, want ErrReplay", err)
	}
}

// typedPacket returns a secured, encrypted packet of the given type and
// payload size from l, with l's next frame counter.
func typedPacket(l *Link, typ packet.Type, size int) *packet.Packet {
	p := securedPacket(l, make([]byte, size))
	p.Type = typ
	if typ == packet.TypeHello {
		p.Dst, p.Via = packet.Broadcast, 0
	}
	return p
}

// sealedFrames returns n frames from tx, sealed and parsed the way a
// receiver sees them; each can be opened once.
func sealedFrames(t testing.TB, tx *Link, typ packet.Type, size, n int) []*packet.Packet {
	frames := make([]*packet.Packet, n)
	for i := range frames {
		p := typedPacket(tx, typ, size)
		frame, err := packet.Marshal(p)
		if err == nil {
			err = tx.SealFrame(frame, p)
		}
		if err == nil {
			frames[i], err = packet.Unmarshal(frame)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return frames
}

// clonePacket copies p with its own payload, as a second listener parses
// the same frame into its own packet.
func clonePacket(p *packet.Packet) *packet.Packet {
	cp := *p
	cp.Payload = bytes.Clone(p.Payload)
	return &cp
}

// TestSealOpenAllocs fences the engine's per-frame crypto: sealing and
// opening a data frame or a 60-row HELLO allocate nothing once the
// origin's slot and sessions exist, and neither does an Open that
// authenticates under the previous key or under the staged one — alone,
// through a shared Memo that misses, or through one another listener has
// primed with the same frame.
func TestSealOpenAllocs(t *testing.T) {
	const runs = 100
	oldKey, newKey := testKey(0x42), testKey(0x43)
	cases := []struct {
		name string
		typ  packet.Type
		size int
		keys func(tx, rx *Link) // which of rx's keys tx's frames open under
	}{
		{"data 24 B", packet.TypeData, 24, func(tx, rx *Link) {}},
		{"HELLO 240 B", packet.TypeHello, 240, func(tx, rx *Link) {}},
		{"data under the previous key", packet.TypeData, 24, func(tx, rx *Link) { rx.Rotate(newKey) }},
		{"data under the staged key", packet.TypeData, 24, func(tx, rx *Link) { rx.Stage(newKey); tx.Rotate(newKey) }},
	}
	for _, c := range cases {
		tx := NewLink(oldKey, 0x0001)
		c.keys(tx, NewLink(oldKey, 0x0002))
		p := typedPacket(tx, c.typ, c.size)
		frame, err := packet.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(runs, func() {
			if err := tx.SealFrame(frame, p); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("%s: SealFrame: %v allocations, want 0", c.name, got)
		}

		for _, memo := range []string{"alone", "memo miss", "memo primed"} {
			rx, primer := NewLink(oldKey, 0x0002), NewLink(oldKey, 0x0003)
			c.keys(tx, rx)
			c.keys(tx, primer)
			if memo != "alone" {
				m := new(Memo)
				rx.ShareMemo(m)
				primer.ShareMemo(m)
			}
			// Open consumes a counter, so each run opens its own sealed
			// frame; the first one (outside the count) creates the slot and
			// sessions. A primer opens its own copy of each frame first.
			frames := sealedFrames(t, tx, c.typ, c.size, runs+2)
			copies := make([]*packet.Packet, len(frames))
			for i, f := range frames {
				copies[i] = clonePacket(f)
			}
			open := func(i int) {
				if memo == "memo primed" {
					if err := primer.Open(copies[i]); err != nil {
						t.Fatal(err)
					}
				}
				if err := rx.Open(frames[i]); err != nil {
					t.Fatal(err)
				}
			}
			open(0)
			i := 1
			if got := testing.AllocsPerRun(runs, func() {
				open(i)
				i++
			}); got != 0 {
				t.Errorf("%s, %s: Open: %v allocations, want 0", c.name, memo, got)
			}
		}
	}
}

// TestRetiredSessionsEvicted: every way a key generation retires — a
// superseded Stage, a Rotate to an unrelated key past a staged one, a
// second Rotate past the previous key, RetirePrev — drops its sessions
// from every origin's slot, so a slot holds each live generation's
// session once, none of a retired one's, and never more than three.
func TestRetiredSessionsEvicted(t *testing.T) {
	rx := NewLink(testKey(1), 0x0100)
	counters := map[packet.Address]uint32{}
	// hear opens, from each of three origins, one frame under every key
	// rx has installed; one under the staged key derives all three.
	hear := func() {
		keys := []Key{rx.cur}
		if rx.hasPrev {
			keys = append(keys, rx.prev)
		}
		if rx.hasNext {
			keys = append(keys, rx.next)
		}
		for _, a := range []packet.Address{3, 1, 2} {
			for _, k := range keys {
				tx := NewLink(k, a)
				tx.counter = counters[a]
				if err := rx.Open(sealedFrames(t, tx, packet.TypeData, 8, 1)[0]); err != nil {
					t.Fatalf("origin %v: %v", a, err)
				}
				counters[a] = tx.counter
			}
		}
	}
	check := func(step string) {
		t.Helper()
		for _, o := range rx.origins {
			sessions := []session{o.sess}
			if o.more != nil {
				sessions = append(sessions, o.more[:]...)
			}
			held := map[uint32]bool{}
			for _, s := range sessions {
				if s.gen == 0 {
					continue
				}
				if held[s.gen] {
					t.Errorf("after %s: origin %v holds generation %d twice", step, o.addr, s.gen)
				}
				held[s.gen] = true
				if s.gen != rx.curGen && !(rx.hasPrev && s.gen == rx.prevGen) && !(rx.hasNext && s.gen == rx.nextGen) {
					t.Errorf("after %s: origin %v holds retired generation %d", step, o.addr, s.gen)
				}
				if s.block == nil {
					t.Errorf("after %s: origin %v holds generation %d without a cipher", step, o.addr, s.gen)
				}
			}
			if len(held) > 3 {
				t.Errorf("after %s: origin %v holds %d sessions", step, o.addr, len(held))
			}
		}
	}
	hear()
	for _, step := range []struct {
		name string
		do   func()
	}{
		{"Stage", func() { rx.Stage(testKey(2)) }},
		{"a superseding Stage", func() { rx.Stage(testKey(3)) }},
		{"Rotate to the staged key", func() { rx.Rotate(testKey(3)) }},
		{"Stage during the grace period", func() { rx.Stage(testKey(4)) }},
		{"Rotate past the staged key", func() { rx.Rotate(testKey(5)) }},
		{"a second Rotate", func() { rx.Rotate(testKey(6)) }},
		{"Stage, then Rotate to it", func() { rx.Stage(testKey(7)); hear(); rx.Rotate(testKey(7)) }},
		{"RetirePrev", func() { rx.RetirePrev() }},
	} {
		step.do()
		check(step.name)
		hear()
		check(step.name + " and traffic")
	}
}

var benchFrames = []struct {
	name string
	typ  packet.Type
	size int
}{{"hello240", packet.TypeHello, 240}, {"data24", packet.TypeData, 24}}

// BenchmarkOpen times Open of a frame from a known origin: a 60-row
// HELLO (240 B), the frame that dominates a secured mesh's receptions,
// and a 24 B data frame. A frame opens once, so batches of freshly
// sealed frames are prepared with the timer stopped. listeners14 times
// one HELLO opened by the 14 stations that hear a transmission in
// mesh_secure, each Link alone or all sharing one Memo; an op is the
// whole transmission.
func BenchmarkOpen(b *testing.B) {
	for _, c := range benchFrames {
		b.Run(c.name, func(b *testing.B) {
			const batch = 512
			key := testKey(0x42)
			tx, rx := NewLink(key, 0x0001), NewLink(key, 0x0002)
			var frames []*packet.Packet
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%batch == 0 {
					b.StopTimer()
					frames = sealedFrames(b, tx, c.typ, c.size, batch)
					b.StartTimer()
				}
				if err := rx.Open(frames[i%batch]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, memo := range []bool{false, true} {
		name := "listeners14/alone"
		if memo {
			name = "listeners14/memo"
		}
		b.Run(name, func(b *testing.B) {
			const batch, listeners = 64, 14
			key := testKey(0x42)
			tx := NewLink(key, 0x0001)
			m := new(Memo)
			rx := make([]*Link, listeners)
			for i := range rx {
				rx[i] = NewLink(key, packet.Address(0x0100+i))
				if memo {
					rx[i].ShareMemo(m)
				}
			}
			// Every listener opens its own copy of each frame, as each
			// station's receive path parses the shared bytes into its own
			// packet.
			var frames [][]*packet.Packet
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%batch == 0 {
					b.StopTimer()
					frames = make([][]*packet.Packet, listeners)
					for j := range frames {
						frames[j] = make([]*packet.Packet, batch)
					}
					for k, f := range sealedFrames(b, tx, packet.TypeHello, 240, batch) {
						for j := range frames {
							frames[j][k] = clonePacket(f)
						}
					}
					b.StartTimer()
				}
				for j, l := range rx {
					if err := l.Open(frames[j][i%batch]); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkSeal times SealFrame of the same two frames.
func BenchmarkSeal(b *testing.B) {
	for _, c := range benchFrames {
		b.Run(c.name, func(b *testing.B) {
			tx := NewLink(testKey(0x42), 0x0001)
			p := typedPacket(tx, c.typ, c.size)
			frame, err := packet.Marshal(p)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := tx.SealFrame(frame, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
