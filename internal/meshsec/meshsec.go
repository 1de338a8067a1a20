// Package meshsec is the mesh's link-layer security subsystem:
// authenticated encryption, replay protection, and key management for
// LoRaMesher frames.
//
// The model is a single shared network key per mesh (the way deployed
// LoRa meshes such as Meshtastic provision channels). Every node derives
// a per-origin session key from (netkey, 16-bit origin address); a frame
// is encrypted and authenticated ONCE by its originator under that
// origin's session key, with an AEAD nonce built from the origin address
// and a monotonic 32-bit frame counter carried in the secured wire
// header (see internal/packet). Because the MIC covers only the
// hop-invariant fields — the hop-local via is excluded, exactly like the
// trace ID — forwarders verify, rewrite via, and re-seal byte-identically
// without any per-hop key agreement, and every receiver keeps one sliding
// replay window per origin.
//
// Construction: AES-128-CTR encryption with an AES-CMAC (RFC 4493) tag
// truncated to the 4-byte wire MIC, i.e. CCM's two halves composed
// encrypt-then-MAC. Everything is a pure function of (netkey, addresses,
// counters), so seeded simulator runs stay byte-identical replayable.
//
// Threat model: an outside radio without the network key cannot read
// payloads, forge or tamper with frames (including routing HELLOs), or
// replay captured traffic. NOT protected: traffic analysis (headers are
// plaintext so forwarders can route), jamming/collisions, via-field
// tampering (hop-local, self-healing via retransmission), and insiders
// holding the network key.
//
// Links that share a Memo verify one transmission once, not once per
// listener. The memo remembers the verdict only for identical bytes under
// an identical key, and only a success, so it changes no outcome and the
// threat model is unchanged: a frame that differs from the remembered one
// anywhere the MIC covers is verified in full.
package meshsec

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"

	"repro/internal/packet"
)

// Key is a 128-bit network key.
type Key [16]byte

// ParseKey decodes a 32-hex-digit network key.
func ParseKey(s string) (Key, error) {
	var k Key
	b, err := hex.DecodeString(s)
	if err != nil {
		return k, fmt.Errorf("meshsec: malformed key (want 32 hex digits): %v", err)
	}
	if len(b) != len(k) {
		return k, fmt.Errorf("meshsec: malformed key: got %d hex digits, want 32", 2*len(b))
	}
	copy(k[:], b)
	return k, nil
}

func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Errors returned by Open.
var (
	// ErrAuth means the MIC did not verify under any installed key: the
	// frame is forged, corrupted, or sealed under an unknown key.
	ErrAuth = errors.New("meshsec: authentication failed")
	// ErrReplay means the frame authenticated but its counter was already
	// accepted from that origin (or fell behind the replay window).
	ErrReplay = errors.New("meshsec: replayed frame counter")
)

// keystreamLen is the keystream buffer's size. A frame is at most
// packet.MaxFrameLen (255) bytes, so its payload spans at most 16 blocks
// and the 16-bit block index of a counter block never wraps.
const keystreamLen = (packet.MaxFrameLen + 15) / 16 * 16

// session holds the cipher state derived for one origin address under
// one key generation.
type session struct {
	block  cipher.Block
	k1, k2 [16]byte // CMAC subkeys
	gen    uint32   // key generation; 0 = empty
}

// origin is what a Link keeps about one origin address: its replay
// window and its sessions under the live key generations (current,
// previous, staged), so one lookup serves a whole Open. Outside a key
// rotation one generation is live, so its session is inline and the
// other two live behind a pointer set at the first rotation: a node
// keeps a slot for every origin it hears.
type origin struct {
	win  window
	addr packet.Address
	// windowed is set once a counter from this origin was checked:
	// ReplayStats counts those origins, not ones that only failed
	// authentication.
	windowed bool
	sess     session
	more     *[2]session
}

// Link is one node's security state: the installed network key(s), the
// node's own monotonic frame counter, and per-origin session keys and
// replay windows.
//
// The Link is designed to be owned by the HOST (the simulator handle or
// the device firmware's persistent store), not by the protocol engine:
// engines are rebuilt on crash/restart, and a counter that reset to zero
// would reuse AEAD nonces. Passing the same Link into the rebuilt engine
// models counter persistence across reboots.
//
// Not safe for concurrent use; each node owns exactly one.
type Link struct {
	addr packet.Address

	cur, prev, next          Key
	hasPrev, hasNext         bool
	curGen, prevGen, nextGen uint32 // allocated by genSeq; tag cached sessions
	genSeq                   uint32 // generation allocator (never reused)

	counter uint32

	origins []origin // sorted by address

	scratch []byte // decrypted-payload buffer, valid until the next Open
	// The cipher's working blocks: the CMAC chaining value and the CTR
	// keystream. A block handed to cipher.Block.Encrypt escapes, so as
	// locals they would cost an allocation each per call.
	mac [16]byte
	ks  [keystreamLen]byte

	memo *Memo // shared with the other listeners of a medium; nil = none
}

// Memo remembers the last frame a network key authenticated, so that the
// Links sharing it verify a transmission once, not once per listener:
// every station in range opens the same bytes under the same key. A hit
// needs the key, the 13-byte AAD, the MIC and the ciphertext to equal the
// remembered frame's byte for byte, so it stands for a verification that
// would succeed, and it hands back that verification's keystream. Only a
// success is recorded. What stays per Link is everything that is not a
// function of the bytes and the key: the fallback to the previous and the
// staged key, HELLO freshness and the replay window.
//
// One frame is enough when the listeners of a transmission are evaluated
// back to back, as airmedium does. The memo is keyed on key bytes, never
// on a Link's key generation or a slice's identity. Its fields are fixed
// arrays, so it allocates nothing. Not safe for concurrent use: share one
// only among Links driven from one goroutine.
type Memo struct {
	key Key
	aad [13]byte
	mic [packet.SecMICLen]byte
	n   int // ciphertext length
	ct  [keystreamLen]byte
	ks  [keystreamLen]byte
	ok  bool // a frame is recorded
}

// lookup reports whether p, with AAD aad, is the frame m last recorded
// under key, and if so returns its keystream (nil for a MIC-only frame,
// as verify does).
func (m *Memo) lookup(key *Key, aad *[13]byte, p *packet.Packet) ([]byte, bool) {
	n := len(p.Payload)
	if !m.ok || m.key != *key || m.aad != *aad || m.mic != p.MIC || m.n != n || !bytes.Equal(m.ct[:n], p.Payload) {
		return nil, false
	}
	if p.SecFlags&packet.SecFlagEncrypted == 0 {
		return nil, true
	}
	return m.ks[:n], true
}

// record remembers p, which authenticated under key with keystream ks.
func (m *Memo) record(key *Key, aad *[13]byte, p *packet.Packet, ks []byte) {
	m.ok, m.key, m.aad, m.mic, m.n = true, *key, *aad, p.MIC, len(p.Payload)
	copy(m.ct[:], p.Payload)
	copy(m.ks[:], ks)
}

// ShareMemo makes Open consult and feed m. Give every Link that hears the
// same medium the same Memo; a Link without one verifies every frame.
func (l *Link) ShareMemo(m *Memo) { l.memo = m }

// NewLink returns the security state for a node with the given address
// under the given network key.
func NewLink(key Key, addr packet.Address) *Link {
	return &Link{addr: addr, cur: key, curGen: 1, genSeq: 1}
}

// newGen allocates a session-cache generation that has never been used
// by this link, so retired generations' cache entries can never alias a
// live key's.
func (l *Link) newGen() uint32 {
	l.genSeq++
	return l.genSeq
}

// Addr returns the owning node's address.
func (l *Link) Addr() packet.Address { return l.addr }

// Counter returns the last frame counter issued (0 = none yet).
func (l *Link) Counter() uint32 { return l.counter }

// ReplayStats summarizes the link's replay-protection state for the
// health/metrics exporters: how many origins have a replay window, the
// total admitted counters those windows remember (occupancy), and the
// highest frame counter authenticated from any origin (the rx
// high-water mark; the tx mark is Counter). Call from the owning node's
// execution context, like Open.
func (l *Link) ReplayStats() (origins, occupancy int, rxHigh uint32) {
	for i := range l.origins {
		o := &l.origins[i]
		if !o.windowed {
			continue
		}
		origins++
		occupancy += o.win.occupancy()
		rxHigh = max(rxHigh, o.win.top)
	}
	return origins, occupancy, rxHigh
}

// NextCounter issues the next monotonic frame counter. Counters start at
// 1; 0 on the wire would mean "never sealed". The 32-bit space outlasts
// any deployment (one frame per second for 136 years).
func (l *Link) NextCounter() uint32 {
	l.counter++
	return l.counter
}

// Stage installs key for ACCEPTANCE only: frames sealed under it open,
// but Seal keeps using the current key. Staging is phase one of a
// loss-free three-phase rotation (stage everywhere, Rotate everywhere,
// RetirePrev everywhere): once the whole mesh has the new key staged,
// nodes can switch their seal key in any order without a single frame —
// in either direction — failing authentication mid-rollout. Staging the
// current key is a no-op; staging a different key replaces any earlier
// staged key. Idempotent.
func (l *Link) Stage(key Key) {
	if key == l.cur || (l.hasNext && key == l.next) {
		return
	}
	if l.hasNext {
		l.evictGen(l.nextGen)
	}
	l.next, l.nextGen, l.hasNext = key, l.newGen(), true
}

// Rotate installs a new network key as the seal key. The old key is
// kept as a fallback for Open so a mesh can be re-keyed node by node
// (far-to-near from the gateway) without partitioning itself
// mid-rotation; Seal switches to the new key immediately. A previously
// Staged key is promoted in place (its cached sessions carry over). The
// frame counter is NOT reset: it keeps climbing across rotations, so a
// nonce is never reused even if a key is ever re-installed. Replay
// windows are kept for the same reason.
func (l *Link) Rotate(key Key) {
	if key == l.cur {
		return
	}
	if l.hasPrev {
		l.evictGen(l.prevGen) // the fallback this rotation replaces
	}
	l.prev, l.prevGen, l.hasPrev = l.cur, l.curGen, true
	if l.hasNext && key == l.next {
		l.cur, l.curGen = l.next, l.nextGen
	} else {
		if l.hasNext {
			// Rotating to an unrelated key supersedes the staged one.
			l.evictGen(l.nextGen)
		}
		l.cur, l.curGen = key, l.newGen()
	}
	l.next, l.nextGen, l.hasNext = Key{}, 0, false
}

// NetKey returns the current network key (for host-side provisioning of
// additional nodes).
func (l *Link) NetKey() Key { return l.cur }

// RetirePrev drops the previous network key kept by Rotate, ending the
// rollout grace period: frames sealed under the old key stop
// authenticating from this moment. A control plane calls this on every
// node once the whole mesh has rotated (the commit phase of a two-phase
// rekey) — until then a captured old-key corpus still authenticates and
// burns replay-window checks; after it, replayed old traffic is plain
// garbage (sec.drop.auth). Idempotent.
func (l *Link) RetirePrev() {
	if !l.hasPrev {
		return
	}
	l.evictGen(l.prevGen)
	l.prev = Key{}
	l.prevGen = 0
	l.hasPrev = false
}

// evictGen drops a retired generation's cached cipher state. Every
// retirement evicts, so an origin never holds more than the three live
// generations' sessions.
func (l *Link) evictGen(gen uint32) {
	for i := range l.origins {
		o := &l.origins[i]
		if o.sess.gen == gen {
			o.sess = session{}
		}
		if o.more == nil {
			continue
		}
		for j := range o.more {
			if o.more[j].gen == gen {
				o.more[j] = session{}
			}
		}
	}
}

// origin returns addr's slot, inserting an empty one on first contact.
// The pointer is valid until the next insertion.
func (l *Link) origin(addr packet.Address) *origin {
	lo, hi := 0, len(l.origins)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if l.origins[m].addr < addr {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == len(l.origins) || l.origins[lo].addr != addr {
		if len(l.origins) == cap(l.origins) {
			// Grow by an eighth, not by append's doubling: every node keeps
			// a slot per origin it hears, and a doubled slice is mostly empty.
			grown := make([]origin, len(l.origins), len(l.origins)+len(l.origins)/8+1)
			copy(grown, l.origins)
			l.origins = grown
		}
		l.origins = slices.Insert(l.origins, lo, origin{addr: addr})
	}
	return &l.origins[lo]
}

// session returns (deriving on first use) the cipher state for frames
// originated by o under the given key generation.
func (l *Link) session(o *origin, key Key, gen uint32) (*session, error) {
	if o.sess.gen == gen {
		return &o.sess, nil
	}
	if o.more != nil {
		for i := range o.more {
			if o.more[i].gen == gen {
				return &o.more[i], nil
			}
		}
	}
	// Every retirement evicts, so of three entries one is free for the
	// at most three live generations.
	s := &o.sess
	if s.gen != 0 {
		if o.more == nil {
			o.more = new([2]session)
		}
		s = &o.more[0]
		if s.gen != 0 {
			s = &o.more[1]
		}
	}
	nk, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("meshsec: %w", err)
	}
	// Per-origin session key: AES(netkey, 0x01 || addr || 0...). Distinct
	// origins get unrelated keys; an attacker learning one session key
	// (e.g. from a captured device) still cannot forge for other origins
	// without inverting AES.
	var blk [16]byte
	blk[0] = 0x01
	binary.BigEndian.PutUint16(blk[1:3], uint16(o.addr))
	nk.Encrypt(blk[:], blk[:])
	b, err := aes.NewCipher(blk[:])
	if err != nil {
		return nil, fmt.Errorf("meshsec: %w", err)
	}
	*s = session{block: b, gen: gen}
	cmacSubkeys(b, &s.k1, &s.k2)
	return s, nil
}

// aad assembles the 13 bytes of authenticated associated data: every
// hop-invariant header field. Via is deliberately excluded so forwarders
// can rewrite it; see the package comment for why that is acceptable.
func secAAD(p *packet.Packet, buf *[13]byte) {
	buf[0] = packet.SecVersion<<4 | p.SecFlags&0x0F
	binary.BigEndian.PutUint16(buf[1:3], uint16(p.Dst))
	binary.BigEndian.PutUint16(buf[3:5], uint16(p.Src))
	buf[5] = byte(p.Type)
	buf[6] = p.SeqID
	binary.BigEndian.PutUint16(buf[7:9], p.Number)
	binary.BigEndian.PutUint32(buf[9:13], p.Counter)
}

// counterBlocks writes the CTR counter blocks covering n bytes from
// (origin, counter) into the keystream buffer and returns them, still
// to be encrypted. Block i is 0x02 || origin || counter || 0… || i: the
// IV is unique per (session key, origin, counter), and n ≤ keystreamLen
// keeps i below 16, so the keystream never repeats.
func (l *Link) counterBlocks(src packet.Address, counter uint32, n int) []byte {
	ks := l.ks[:(n+15)/16*16]
	hi := 0x02<<56 | uint64(src)<<40 | uint64(counter)<<8
	for i := 0; i < len(ks); i += 16 {
		binary.BigEndian.PutUint64(ks[i:], hi)
		binary.BigEndian.PutUint64(ks[i+8:], uint64(i/16))
	}
	return ks
}

// keystream returns the CTR keystream for n bytes from (origin, counter)
// under s: every counter block is written before the first is encrypted,
// so none is read back while its stores are still in flight.
func (l *Link) keystream(s *session, src packet.Address, counter uint32, n int) []byte {
	ks := l.counterBlocks(src, counter, n)
	encryptBlocks(s.block, ks)
	return ks
}

// mic computes the truncated CMAC tag over aad || ct, encrypting the
// counter blocks ks in place along the way (see cmacCTR).
func (l *Link) mic(s *session, aad *[13]byte, ct, ks []byte) [packet.SecMICLen]byte {
	cmacCTR(s.block, &s.k1, &s.k2, aad[:], ct, &l.mac, ks)
	return [packet.SecMICLen]byte(l.mac[:])
}

// verify reports whether p's MIC verifies under s and returns the
// keystream of an encrypted p, encrypted in the same pass (nil for a
// MIC-only frame, and so a no-op for subtle.XORBytes).
func (l *Link) verify(s *session, p *packet.Packet, aad *[13]byte) ([]byte, bool) {
	var ks []byte
	if p.SecFlags&packet.SecFlagEncrypted != 0 {
		ks = l.counterBlocks(p.Src, p.Counter, len(p.Payload))
	}
	return ks, l.mic(s, aad, p.Payload, ks) == p.MIC
}

// SealFrame encrypts and authenticates an encoded secured frame in
// place. frame must be the AppendMarshal encoding of p (plaintext
// payload, zero MIC trailer); on return the payload bytes are ciphertext
// and the trailer holds the MIC. Sealing uses the session key of the
// frame's ORIGIN (p.Src) under the current network key, so forwarding a
// frame re-seals it byte-identically to the original transmission.
func (l *Link) SealFrame(frame []byte, p *packet.Packet) error {
	if !p.Secured {
		return errors.New("meshsec: SealFrame on an unsecured packet")
	}
	if len(frame) < packet.SecMICLen || len(frame) > packet.MaxFrameLen || len(frame) != p.WireLen() {
		return errors.New("meshsec: frame does not match packet")
	}
	s, err := l.session(l.origin(p.Src), l.cur, l.curGen)
	if err != nil {
		return err
	}
	end := len(frame) - packet.SecMICLen
	ct := frame[end-len(p.Payload) : end]
	if p.SecFlags&packet.SecFlagEncrypted != 0 {
		subtle.XORBytes(ct, ct, l.keystream(s, p.Src, p.Counter, len(ct)))
	}
	var aad [13]byte
	secAAD(p, &aad)
	m := l.mic(s, &aad, ct, nil)
	copy(frame[end:], m[:])
	return nil
}

// Open verifies and decrypts a secured packet fresh from Unmarshal
// (payload still ciphertext, aliasing the receive buffer). On success
// the packet's payload is replaced with plaintext held in a buffer owned
// by the Link — valid until the next Open; callers that retain it must
// copy (core's deliver/forward paths already do).
//
// Verification order matters: the MIC is checked first (under the
// current key — or by a hit in the shared Memo — then the previous key
// during a rotation), and only an authenticated counter may advance the
// replay window — otherwise a forger could poison windows and block
// legitimate traffic. The keystream under the current key is computed in
// the same pass as its MIC, but applied only to a frame the window has
// admitted; the scratch buffer is untouched on failure.
func (l *Link) Open(p *packet.Packet) error {
	if !p.Secured {
		return errors.New("meshsec: Open on an unsecured packet")
	}
	if len(p.Payload) > keystreamLen {
		return ErrAuth // longer than any frame a sealer can produce
	}
	o := l.origin(p.Src)
	s, err := l.session(o, l.cur, l.curGen)
	if err != nil {
		return err
	}
	var aad [13]byte
	secAAD(p, &aad)
	var ks []byte
	hit := false
	if l.memo != nil {
		ks, hit = l.memo.lookup(&l.cur, &aad, p)
	}
	ok, key := hit, &l.cur
	if !hit {
		ks, ok = l.verify(s, p, &aad)
	}
	if !ok {
		if l.hasPrev {
			ps, err := l.session(o, l.prev, l.prevGen)
			if err != nil {
				return err
			}
			if l.mic(ps, &aad, p.Payload, nil) == p.MIC {
				s, ok, key = ps, true, &l.prev
			}
		}
		if !ok && l.hasNext {
			// A staged (not yet active) key accepts too: peers that have
			// already rotated stay readable mid-rollout.
			ns, err := l.session(o, l.next, l.nextGen)
			if err != nil {
				return err
			}
			if l.mic(ns, &aad, p.Payload, nil) == p.MIC {
				s, ok, key = ns, true, &l.next
			}
		}
		if !ok {
			return ErrAuth
		}
		if ks != nil {
			ks = l.keystream(s, p.Src, p.Counter, len(p.Payload))
		}
	}
	if !hit && l.memo != nil {
		l.memo.record(key, &aad, p, ks)
	}
	o.windowed = true
	if p.Type == packet.TypeHello && p.Counter <= o.win.top {
		// Beacons get strict freshness, not the reordering window: a
		// HELLO carries topology state, and an old-but-never-seen one
		// replayed out of position would install routes to wherever the
		// origin used to be (a wormhole: the attacker teleports a stale
		// beacon past its one-hop reach). Beacons are broadcast once and
		// never forwarded or retransmitted, so a legitimate one always
		// arrives with the highest counter yet heard from its origin.
		return ErrReplay
	}
	if !o.win.admit(p.Counter) {
		return ErrReplay
	}
	l.scratch = append(l.scratch[:0], p.Payload...)
	subtle.XORBytes(l.scratch, l.scratch, ks)
	p.Payload = l.scratch
	return nil
}

// VerifyOnly checks a packet's MIC without touching replay windows or
// the scratch buffer, and reports whether it verified and (if encrypted)
// returns the decrypted payload as a fresh allocation. bench uses it to
// price authentication alone; nodes and packetdump judge frames with
// Open.
func (l *Link) VerifyOnly(p *packet.Packet) ([]byte, bool) {
	if len(p.Payload) > keystreamLen {
		return nil, false
	}
	s, err := l.session(l.origin(p.Src), l.cur, l.curGen)
	if err != nil {
		return nil, false
	}
	var aad [13]byte
	secAAD(p, &aad)
	ks, ok := l.verify(s, p, &aad)
	if !ok {
		return nil, false
	}
	pt := append([]byte(nil), p.Payload...)
	subtle.XORBytes(pt, pt, ks)
	return pt, true
}

// Key rotation rides the gateway downlink channel as a typed
// internal/control command (OpRekey); core intercepts it on delivery and
// rotates the node's Link instead of handing it to the application. The
// ad-hoc magic-prefixed rekey payload this package used to define was
// promoted into that codec.
