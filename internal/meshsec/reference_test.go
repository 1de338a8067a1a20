package meshsec

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/packet"
)

// The reference: the two-pass Link as it stood before the per-origin
// slots, the batched keystream and the copy-free CMAC, verbatim but for
// its names and the methods no test calls. TestOpenMatchesReference
// holds Link to it, TestCMACCTRSplits holds cmacCTR to its CMAC.

// refSession holds the cipher state derived for one origin address under
// one network key.
type refSession struct {
	block  cipher.Block
	k1, k2 [16]byte // CMAC subkeys
}

// refLink is one node's security state: the installed network key(s), the
// node's own monotonic frame counter, per-origin session-key caches, and
// per-origin replay windows.
//
// The refLink is designed to be owned by the HOST (the simulator handle or
// the device firmware's persistent store), not by the protocol engine:
// engines are rebuilt on crash/restart, and a counter that reset to zero
// would reuse AEAD nonces. Passing the same refLink into the rebuilt engine
// models counter persistence across reboots.
//
// Not safe for concurrent use; each node owns exactly one.
type refLink struct {
	addr packet.Address

	cur, prev, next          Key
	hasPrev, hasNext         bool
	curGen, prevGen, nextGen uint32 // allocated by genSeq; key session cache entries
	genSeq                   uint32 // generation allocator (never reused)

	counter uint32

	sessions map[refSessKey]*refSession
	windows  map[packet.Address]*window

	scratch []byte // decrypted-payload buffer, valid until the next Open
	macBuf  []byte // CMAC input assembly buffer
	// The cipher's working blocks: the CTR counter block and keystream,
	// and the CMAC chaining value. A block handed to cipher.Block.Encrypt
	// escapes, so as locals they would cost an allocation each per call.
	iv, ks, mac [16]byte
}

type refSessKey struct {
	addr packet.Address
	gen  uint32
}

// newRefLink returns the security state for a node with the given address
// under the given network key.
func newRefLink(key Key, addr packet.Address) *refLink {
	return &refLink{
		addr:     addr,
		cur:      key,
		curGen:   1,
		genSeq:   1,
		sessions: make(map[refSessKey]*refSession),
		windows:  make(map[packet.Address]*window),
	}
}

// newGen allocates a session-cache generation that has never been used
// by this link, so retired generations' cache entries can never alias a
// live key's.
func (l *refLink) newGen() uint32 {
	l.genSeq++
	return l.genSeq
}

// ReplayStats summarizes the link's replay-protection state for the
// health/metrics exporters: how many origins have a replay window, the
// total admitted counters those windows remember (occupancy), and the
// highest frame counter authenticated from any origin (the rx
// high-water mark; the tx mark is Counter). Call from the owning node's
// execution context, like Open.
func (l *refLink) ReplayStats() (origins, occupancy int, rxHigh uint32) {
	for _, w := range l.windows {
		origins++
		occupancy += w.occupancy()
		if w.top > rxHigh {
			rxHigh = w.top
		}
	}
	return origins, occupancy, rxHigh
}

// NextCounter issues the next monotonic frame counter. Counters start at
// 1; 0 on the wire would mean "never sealed". The 32-bit space outlasts
// any deployment (one frame per second for 136 years).
func (l *refLink) NextCounter() uint32 {
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
func (l *refLink) Stage(key Key) {
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
func (l *refLink) Rotate(key Key) {
	if key == l.cur {
		return
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

// RetirePrev drops the previous network key kept by Rotate, ending the
// rollout grace period: frames sealed under the old key stop
// authenticating from this moment. A control plane calls this on every
// node once the whole mesh has rotated (the commit phase of a two-phase
// rekey) — until then a captured old-key corpus still authenticates and
// burns replay-window checks; after it, replayed old traffic is plain
// garbage (sec.drop.auth). Idempotent.
func (l *refLink) RetirePrev() {
	if !l.hasPrev {
		return
	}
	l.evictGen(l.prevGen)
	l.prev = Key{}
	l.prevGen = 0
	l.hasPrev = false
}

// evictGen drops a retired generation's cached cipher state.
func (l *refLink) evictGen(gen uint32) {
	for sk := range l.sessions {
		if sk.gen == gen {
			delete(l.sessions, sk)
		}
	}
}

// session returns (caching) the cipher state for frames originated by
// addr under the given key generation.
func (l *refLink) session(addr packet.Address, key Key, gen uint32) (*refSession, error) {
	sk := refSessKey{addr, gen}
	if s, ok := l.sessions[sk]; ok {
		return s, nil
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
	binary.BigEndian.PutUint16(blk[1:3], uint16(addr))
	nk.Encrypt(blk[:], blk[:])
	b, err := aes.NewCipher(blk[:])
	if err != nil {
		return nil, fmt.Errorf("meshsec: %w", err)
	}
	s := &refSession{block: b}
	cmacSubkeys(b, &s.k1, &s.k2)
	l.sessions[sk] = s
	return s, nil
}

// ctrXOR applies the CTR keystream for (origin, counter) to data in
// place. The IV is unique per (session key, origin, counter) and frames
// are < 16 blocks, so the keystream never repeats.
func (l *refLink) ctrXOR(s *refSession, src packet.Address, counter uint32, data []byte) {
	l.iv = [16]byte{0: 0x02}
	binary.BigEndian.PutUint16(l.iv[1:3], uint16(src))
	binary.BigEndian.PutUint32(l.iv[3:7], counter)
	for i := 0; i < len(data); i += 16 {
		binary.BigEndian.PutUint16(l.iv[14:16], uint16(i/16))
		s.block.Encrypt(l.ks[:], l.iv[:])
		n := len(data) - i
		if n > 16 {
			n = 16
		}
		for j := 0; j < n; j++ {
			data[i+j] ^= l.ks[j]
		}
	}
}

// mic computes the truncated CMAC tag over aad || ciphertext.
func (l *refLink) mic(s *refSession, p *packet.Packet, ct []byte) [packet.SecMICLen]byte {
	var aad [13]byte
	secAAD(p, &aad)
	l.macBuf = append(l.macBuf[:0], aad[:]...)
	l.macBuf = append(l.macBuf, ct...)
	refCMAC(s.block, &s.k1, &s.k2, l.macBuf, &l.mac)
	var out [packet.SecMICLen]byte
	copy(out[:], l.mac[:])
	return out
}

// SealFrame encrypts and authenticates an encoded secured frame in
// place. frame must be the AppendMarshal encoding of p (plaintext
// payload, zero MIC trailer); on return the payload bytes are ciphertext
// and the trailer holds the MIC. Sealing uses the session key of the
// frame's ORIGIN (p.Src) under the current network key, so forwarding a
// frame re-seals it byte-identically to the original transmission.
func (l *refLink) SealFrame(frame []byte, p *packet.Packet) error {
	if !p.Secured {
		return errors.New("meshsec: SealFrame on an unsecured packet")
	}
	if len(frame) < packet.SecMICLen || len(frame) != p.WireLen() {
		return errors.New("meshsec: frame does not match packet")
	}
	s, err := l.session(p.Src, l.cur, l.curGen)
	if err != nil {
		return err
	}
	end := len(frame) - packet.SecMICLen
	start := end - len(p.Payload)
	if p.SecFlags&packet.SecFlagEncrypted != 0 {
		l.ctrXOR(s, p.Src, p.Counter, frame[start:end])
	}
	m := l.mic(s, p, frame[start:end])
	copy(frame[end:], m[:])
	return nil
}

// Open verifies and decrypts a secured packet fresh from Unmarshal
// (payload still ciphertext, aliasing the receive buffer). On success
// the packet's payload is replaced with plaintext held in a buffer owned
// by the refLink — valid until the next Open; callers that retain it must
// copy (core's deliver/forward paths already do).
//
// Verification order matters: the MIC is checked first (under the
// current key, then the previous key during a rotation), and only an
// authenticated counter may advance the replay window — otherwise a
// forger could poison windows and block legitimate traffic.
func (l *refLink) Open(p *packet.Packet) error {
	if !p.Secured {
		return errors.New("meshsec: Open on an unsecured packet")
	}
	s, err := l.session(p.Src, l.cur, l.curGen)
	if err != nil {
		return err
	}
	if l.mic(s, p, p.Payload) != p.MIC {
		ok := false
		if l.hasPrev {
			ps, err := l.session(p.Src, l.prev, l.prevGen)
			if err != nil {
				return err
			}
			if l.mic(ps, p, p.Payload) == p.MIC {
				s, ok = ps, true
			}
		}
		if !ok && l.hasNext {
			// A staged (not yet active) key accepts too: peers that have
			// already rotated stay readable mid-rollout.
			ns, err := l.session(p.Src, l.next, l.nextGen)
			if err != nil {
				return err
			}
			if l.mic(ns, p, p.Payload) == p.MIC {
				s, ok = ns, true
			}
		}
		if !ok {
			return ErrAuth
		}
	}
	w := l.windows[p.Src]
	if w == nil {
		w = &window{}
		l.windows[p.Src] = w
	}
	if p.Type == packet.TypeHello && p.Counter <= w.top {
		// Beacons get strict freshness, not the reordering window: a
		// HELLO carries topology state, and an old-but-never-seen one
		// replayed out of position would install routes to wherever the
		// origin used to be (a wormhole: the attacker teleports a stale
		// beacon past its one-hop reach). Beacons are broadcast once and
		// never forwarded or retransmitted, so a legitimate one always
		// arrives with the highest counter yet heard from its origin.
		return ErrReplay
	}
	if !w.admit(p.Counter) {
		return ErrReplay
	}
	l.scratch = append(l.scratch[:0], p.Payload...)
	if p.SecFlags&packet.SecFlagEncrypted != 0 {
		l.ctrXOR(s, p.Src, p.Counter, l.scratch)
	}
	p.Payload = l.scratch
	return nil
}

// VerifyOnly checks a packet's MIC without touching replay windows or
// the scratch buffer, and reports whether it verified and (if encrypted)
// returns the decrypted payload as a fresh allocation. Offline tooling
// (packetdump) uses it; the engine path uses Open.
func (l *refLink) VerifyOnly(p *packet.Packet) ([]byte, bool) {
	s, err := l.session(p.Src, l.cur, l.curGen)
	if err != nil || l.mic(s, p, p.Payload) != p.MIC {
		return nil, false
	}
	pt := append([]byte(nil), p.Payload...)
	if p.SecFlags&packet.SecFlagEncrypted != 0 {
		l.ctrXOR(s, p.Src, p.Counter, pt)
	}
	return pt, true
}

// refCMAC is the parent's cmac, verbatim.
func refCMAC(b cipher.Block, k1, k2 *[16]byte, msg []byte, x *[16]byte) {
	*x = [16]byte{}
	n := len(msg)
	// All complete blocks but the last.
	full := (n - 1) / 16 // index of the final block
	if n == 0 {
		full = 0
	}
	for i := 0; i < full; i++ {
		for j := 0; j < 16; j++ {
			x[j] ^= msg[16*i+j]
		}
		b.Encrypt(x[:], x[:])
	}
	// Final block: XOR K1 when complete, pad + XOR K2 otherwise.
	var last [16]byte
	rem := msg[16*full:]
	if len(rem) == 16 {
		copy(last[:], rem)
		for j := 0; j < 16; j++ {
			last[j] ^= k1[j]
		}
	} else {
		copy(last[:], rem)
		last[len(rem)] = 0x80
		for j := 0; j < 16; j++ {
			last[j] ^= k2[j]
		}
	}
	for j := 0; j < 16; j++ {
		x[j] ^= last[j]
	}
	b.Encrypt(x[:], x[:])
}
