package meshsec

import (
	"bytes"
	"crypto/aes"
	"encoding/hex"
	"math/rand"
	"testing"

	"repro/internal/packet"
)

func goldenPayload(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(7*i + 1)
	}
	return b
}

// TestSealedFramesGolden pins the wire bytes SealFrame produces — the
// ciphertext and the MIC — to vectors sealed by the two-pass
// implementation this package used to have, and opens each back to its
// plaintext.
func TestSealedFramesGolden(t *testing.T) {
	data := func(n int, ctr uint32) *packet.Packet {
		return &packet.Packet{Dst: 0x0304, Src: 0x0102, Type: packet.TypeData, Via: 0x0506,
			Payload: goldenPayload(n), Secured: true, SecFlags: packet.SecFlagEncrypted, Counter: ctr}
	}
	cases := []struct {
		name string
		p    *packet.Packet
		want string
	}{
		{"data0", data(0, 1), "03040102821111000000010506319cd89d"},
		{"data1", data(1, 2), "03040102821211000000020506157866d7ea"},
		{"data15", data(15, 3), "0304010282201100000003050655cdcbab49756102a51915fe58a739bb34aba2"},
		{"data16", data(16, 4), "0304010282211100000004050674aad2611afbde82ce416ae15d160abda06b1ce4"},
		{"data17", data(17, 5), "03040102822211000000050506d8bfc183b351ec70009ead71d690d10ad2c3b448df"},
		{"data24", data(24, 6), "0304010282291100000006050622688dda5093d7767a4ba8018a80c4074abd40732ae97020e19e7222"},
		{"hello240", &packet.Packet{Dst: packet.Broadcast, Src: 0x0102, Type: packet.TypeHello,
			Payload: goldenPayload(240), Secured: true, SecFlags: packet.SecFlagEncrypted, Counter: 0x01020304},
			"ffff010284ff1101020304dd3a62c1d89c80088b9ea9dbbb8fcedf4cb8aaaa6510f25687e3fffa62d3e6e423e6e623cd5531" +
				"fa5211ad17ff8a186dedf90af95f99c9ae43ea5d28405a5d5bf5f399768ccf01a12659435d6e361e84dd7e618a32ddbf4c2c" +
				"e34f4292ed128f8a054e77cfe20c59f463a01730fe36013a7a16ed782c80a50cf2019376fd813fb8d64e7802bbdbc41ca9c4" +
				"98eac488c94e136c487d4b11fe80740fe5466b6d68cf7ce080f3aac1283f37bcd5b30e26f05d88511142b6e70fe8d424cedb" +
				"98e3cfb8c6fc6100b44d3b16a98903afd3e8f3e1b20ad2699a31018e8525fa85b6fa9204abd8496cafbb8280073bb649a34f" +
				"641f3d4941"},
		{"xldata100", &packet.Packet{Dst: 0x0304, Src: 0x0102, Type: packet.TypeXLData, Via: 0x0506,
			SeqID: 9, Number: 0x0203, Payload: goldenPayload(100), Secured: true,
			SecFlags: packet.SecFlagEncrypted, Counter: 0xFFFFFFFE},
			"03040102927811fffffffe05060902035fbd97e67008a097d72034c3fc863232df86aa07679e95d545250df84f9a70215c3f" +
				"785f7b281311ebdec052f969d624eb9b4673db492afa526a7b3478f6a4091f68ebdd1e68c3922c76e434bab53e420636b226" +
				"fce2873c974c44c46df703cdcc47931d700be3f2"},
		{"mic_only20", &packet.Packet{Dst: 0x0304, Src: 0x0102, Type: packet.TypeData, Via: 0x0506,
			Payload: goldenPayload(20), Secured: true, Counter: 77},
			"030401028225100000004d050601080f161d242b323940474e555c636a71787f866097f49b"},
	}
	key := Key{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	tx := NewLink(key, 0x0102)
	for _, c := range cases {
		frame, err := packet.Marshal(c.p)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.SealFrame(frame, c.p); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(frame); got != c.want {
			t.Errorf("%s sealed to\n%s\nwant\n%s", c.name, got, c.want)
			continue
		}
		opened, err := packet.Unmarshal(frame)
		if err != nil {
			t.Fatal(err)
		}
		if err := NewLink(key, 0x0304).Open(opened); err != nil || !bytes.Equal(opened.Payload, c.p.Payload) {
			t.Errorf("%s opened to % x, %v; want % x", c.name, opened.Payload, err, c.p.Payload)
		}
	}
}

// TestCMACCTRSplits holds the copy-free chain to the RFC 4493 CMAC over
// the assembled message, for every split a frame can present (no head,
// the 13-byte AAD, a whole block), and its keystream blocks to AES of
// the counter blocks, whether the chain outlasts them or not.
func TestCMACCTRSplits(t *testing.T) {
	b, err := aes.NewCipher(goldenPayload(16))
	if err != nil {
		t.Fatal(err)
	}
	var k1, k2, want, got [16]byte
	cmacSubkeys(b, &k1, &k2)
	msg := goldenPayload(80)
	for _, h := range []int{0, 13, 16} {
		for n := 0; n <= 64; n++ {
			for _, blocks := range []int{0, 1, n / 16, (h+n)/16 + 2} {
				head, body := msg[:h], msg[h:h+n]
				refCMAC(b, &k1, &k2, msg[:h+n], &want)
				ks := goldenPayload(16 * blocks)
				wantKS := bytes.Clone(ks)
				for i := 0; i < len(wantKS); i += 16 {
					b.Encrypt(wantKS[i:i+16], wantKS[i:i+16])
				}
				cmacCTR(b, &k1, &k2, head, body, &got, ks)
				if got != want || !bytes.Equal(ks, wantKS) {
					t.Fatalf("head %d, msg %d, %d keystream blocks: tag %x, want %x; keystream ok %v",
						h, n, blocks, got, want, bytes.Equal(ks, wantKS))
				}
			}
		}
	}
}

// refPair is one node on both implementations, kept in lockstep.
type refPair struct {
	l   *Link
	ref *refLink
}

func newRefPair(key Key, addr packet.Address) refPair {
	return refPair{NewLink(key, addr), newRefLink(key, addr)}
}

func (r refPair) stage(k Key)  { r.l.Stage(k); r.ref.Stage(k) }
func (r refPair) rotate(k Key) { r.l.Rotate(k); r.ref.Rotate(k) }
func (r refPair) retirePrev()  { r.l.RetirePrev(); r.ref.RetirePrev() }

// TestOpenMatchesReference drives Link and the reference through one
// random sequence of seals, opens, replays, tampered frames and key
// changes (sender and receiver each stage, rotate and retire on their
// own), and requires the same sealed bytes, the same verdict from Open
// and VerifyOnly, and the same plaintext. Frames span every length from
// 0 to the largest secured payload, encrypted and MIC-only, and open
// under the receiver's current, previous and staged key.
func TestOpenMatchesReference(t *testing.T) {
	keys := []Key{testKey(0x11), testKey(0x22), testKey(0x33), testKey(0x44)}
	types := []packet.Type{packet.TypeData, packet.TypeHello, packet.TypeXLData}
	rng := rand.New(rand.NewSource(1))
	rx := newRefPair(keys[0], 0x0002)
	// Origins in no particular order, so slots are inserted everywhere.
	var senders []refPair
	for _, a := range []packet.Address{0x0700, 0x0001, 0xFFFE, 0x0030, 0x0702} {
		senders = append(senders, newRefPair(keys[0], a))
	}
	var sent [][]byte
	opened := map[string]int{}

	open := func(frame []byte, sealedUnder Key) {
		p, err := packet.Unmarshal(bytes.Clone(frame))
		if err != nil || !p.Secured {
			return // the codec refuses it before the security layer sees it
		}
		q, _ := packet.Unmarshal(bytes.Clone(frame))
		ptV, okV := rx.l.VerifyOnly(p)
		refV, refOkV := rx.ref.VerifyOnly(q)
		if okV != refOkV || !bytes.Equal(ptV, refV) {
			t.Fatalf("VerifyOnly % x: %v % x, reference %v % x", frame, okV, ptV, refOkV, refV)
		}
		scratch := bytes.Clone(rx.l.scratch)
		under := "cur"
		switch {
		case sealedUnder == rx.l.cur:
		case rx.l.hasPrev && sealedUnder == rx.l.prev:
			under = "prev"
		case rx.l.hasNext && sealedUnder == rx.l.next:
			under = "next"
		default:
			under = "other"
		}
		err, refErr := rx.l.Open(p), rx.ref.Open(q)
		if err != refErr {
			t.Fatalf("Open % x: %v, reference %v", frame, err, refErr)
		}
		if err != nil {
			if !bytes.Equal(rx.l.scratch, scratch) {
				t.Fatalf("failed Open (%v) wrote the scratch buffer", err)
			}
			return
		}
		if !bytes.Equal(p.Payload, q.Payload) {
			t.Fatalf("Open % x: plaintext % x, reference % x", frame, p.Payload, q.Payload)
		}
		opened[under]++
	}

	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(40); {
		case op == 0:
			rx.stage(keys[rng.Intn(len(keys))])
		case op == 1:
			rx.rotate(keys[rng.Intn(len(keys))])
		case op == 2:
			rx.retirePrev()
		case op < 6:
			s := senders[rng.Intn(len(senders))]
			s.rotate(keys[rng.Intn(len(keys))])
		case op < 9 && len(sent) > 0:
			// A replay of something already sent, or a tampered copy of it.
			frame := bytes.Clone(sent[rng.Intn(len(sent))])
			if rng.Intn(2) == 0 {
				frame[rng.Intn(len(frame))] ^= byte(1 << rng.Intn(8))
			}
			open(frame, Key{})
		default:
			s := senders[rng.Intn(len(senders))]
			typ := types[rng.Intn(len(types))]
			size := rng.Intn(packet.MaxPayload(typ) - packet.SecOverhead + 1)
			p := &packet.Packet{Dst: 0x0002, Src: s.l.Addr(), Via: 0x0002, Type: typ,
				Payload: make([]byte, size), Secured: true, Counter: s.l.NextCounter()}
			s.ref.NextCounter()
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
			if err != nil {
				t.Fatal(err)
			}
			refFrame := bytes.Clone(frame)
			if err := s.l.SealFrame(frame, p); err != nil {
				t.Fatal(err)
			}
			if err := s.ref.SealFrame(refFrame, p); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(frame, refFrame) {
				t.Fatalf("sealed % x, reference % x", frame, refFrame)
			}
			sent = append(sent, frame)
			open(frame, s.l.cur)
		}
	}
	o, occ, high := rx.l.ReplayStats()
	ro, rocc, rhigh := rx.ref.ReplayStats()
	if o != ro || occ != rocc || high != rhigh {
		t.Errorf("ReplayStats %d %d %d, reference %d %d %d", o, occ, high, ro, rocc, rhigh)
	}
	t.Logf("opened by key: %v", opened)
	for _, under := range []string{"cur", "prev", "next"} {
		if opened[under] == 0 {
			t.Errorf("no frame opened under the receiver's %s key; the sequence does not cover it", under)
		}
	}
}
