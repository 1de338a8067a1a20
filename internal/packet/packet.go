// Package packet defines the LoRaMesher wire format: the packet header,
// packet types, and binary (de)serialization.
//
// The layout follows the LoRaMesher C++ prototype the paper demonstrates:
//
//	common header:  dst(2) src(2) type(1) size(1)
//	routed packets: + via(2)
//	stream packets: + seqID(1) number(2)
//	payload:        up to the 255-byte LoRa PHY limit
//
// Secured frames (see internal/meshsec) set the high bit of the type
// byte and insert a versioned security header between the size byte and
// the via/stream fields, plus a MIC trailer after the payload:
//
//	secured header: verflags(1) counter(4)   — after the size byte
//	secured trailer: mic(4)                  — after the payload
//
// The counter is the *originator's* monotonic frame counter and, like
// src/dst, is never rewritten by forwarders; the MIC covers every
// hop-invariant field (the hop-local via is excluded so forwarders can
// rewrite it without key material for re-signing per hop). Legacy frames
// (high bit clear) parse exactly as before.
//
// Node addresses are 16 bits (derived from the device MAC on hardware);
// 0xFFFF broadcasts. HELLO packets carry the sender's routing table as a
// sequence of (address, metric, role) tuples. Reliable large-payload
// streams use SYNC / XL_DATA / ACK / LOST packets, all of which carry a
// stream sequence id plus a packet number.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
)

// Address is a 16-bit mesh node address.
type Address uint16

// Broadcast is the all-nodes destination address.
const Broadcast Address = 0xFFFF

func (a Address) String() string { return fmt.Sprintf("%04X", uint16(a)) }

// Type identifies the packet kind. Values reproduce the LoRaMesher
// prototype's on-air constants, where bit 1 marks the data family and
// higher bits select the sub-kind.
type Type uint8

// Wire packet types.
const (
	// TypeHello carries the sender's routing table; broadcast, never
	// forwarded.
	TypeHello Type = 0x04
	// TypeData is an unreliable routed datagram.
	TypeData Type = 0x02
	// TypeDataAck is a routed datagram that requests an end-to-end ACK.
	TypeDataAck Type = 0x03
	// TypeSync opens a reliable large-payload stream: Number carries the
	// total chunk count.
	TypeSync Type = 0x42
	// TypeXLData is one chunk of a reliable stream: Number is the
	// 1-based chunk index.
	TypeXLData Type = 0x12
	// TypeAck acknowledges a SYNC (Number=0) or a chunk (Number=index).
	TypeAck Type = 0x0A
	// TypeLost asks the sender to retransmit chunk Number.
	TypeLost Type = 0x22

	// The two types below belong to the reactive (AODV-style) comparison
	// protocol, not to LoRaMesher itself; they share the wire header so
	// both protocols run on identical substrates.

	// TypeRouteRequest floods a route discovery: Dst is the sought
	// destination, Src the originator; the payload carries the request
	// id and accumulated hop count.
	TypeRouteRequest Type = 0x05
	// TypeRouteReply returns the discovered route hop by hop toward the
	// originator (routed: carries via).
	TypeRouteReply Type = 0x06

	// The three types below belong to the pluggable forwarding strategies
	// (see internal/forward): the ICN named-data strategy and the slotted
	// real-time mode. They share the wire header so every strategy runs on
	// the identical substrate.

	// TypeInterest floods an ICN interest: Src is the requesting
	// originator (preserved across relays, like TypeRouteRequest); the
	// payload carries the nonce, hop count, previous hop, and content
	// name. Link-local broadcast, no via field.
	TypeInterest Type = 0x07
	// TypeNamedData returns named content hop by hop along the PIT
	// breadcrumbs toward a requester (routed: carries via).
	TypeNamedData Type = 0x08
	// TypeSlotBeacon advertises a node's TDMA slot assignment in the
	// slotted strategy. Link-local broadcast, never forwarded.
	TypeSlotBeacon Type = 0x09
)

// Valid reports whether t is a known packet type.
func (t Type) Valid() bool {
	switch t {
	case TypeHello, TypeData, TypeDataAck, TypeSync, TypeXLData, TypeAck, TypeLost,
		TypeRouteRequest, TypeRouteReply, TypeInterest, TypeNamedData, TypeSlotBeacon:
		return true
	default:
		return false
	}
}

// Routed reports whether packets of this type carry a via field and are
// forwarded hop by hop using the routing table. HELLOs, route-request and
// interest floods, and slot beacons are link-local broadcasts without one.
func (t Type) Routed() bool {
	return t.Valid() && t != TypeHello && t != TypeRouteRequest &&
		t != TypeInterest && t != TypeSlotBeacon
}

// Stream reports whether packets of this type belong to a reliable stream
// and carry (seqID, number).
func (t Type) Stream() bool {
	switch t {
	case TypeSync, TypeXLData, TypeAck, TypeLost, TypeDataAck:
		return true
	default:
		return false
	}
}

func (t Type) String() string {
	switch t {
	case TypeHello:
		return "HELLO"
	case TypeData:
		return "DATA"
	case TypeDataAck:
		return "DATA_ACK"
	case TypeSync:
		return "SYNC"
	case TypeXLData:
		return "XL_DATA"
	case TypeAck:
		return "ACK"
	case TypeLost:
		return "LOST"
	case TypeRouteRequest:
		return "RREQ"
	case TypeRouteReply:
		return "RREP"
	case TypeInterest:
		return "INTEREST"
	case TypeNamedData:
		return "NAMED_DATA"
	case TypeSlotBeacon:
		return "SLOT_BEACON"
	default:
		return fmt.Sprintf("Type(0x%02X)", uint8(t))
	}
}

// Header and size constants, in bytes.
const (
	// BaseHeaderLen covers dst, src, type, size.
	BaseHeaderLen = 6
	// ViaLen is the extra next-hop field on routed packets.
	ViaLen = 2
	// StreamHeaderLen is the extra (seqID, number) on stream packets.
	StreamHeaderLen = 3
	// MaxFrameLen is the LoRa PHY payload limit.
	MaxFrameLen = 255
)

// Secured-frame constants. All legacy type values are below 0x80, so the
// high bit of the type byte discriminates secured frames on the wire.
const (
	// secTypeBit marks a secured frame in the wire type byte.
	secTypeBit = 0x80
	// SecVersion is the security header version this codec speaks; the
	// upper nibble of the verflags byte carries it.
	SecVersion = 1
	// SecFlagEncrypted marks a payload that is encrypted (not just
	// authenticated); lower-nibble flag of the verflags byte.
	SecFlagEncrypted = 0x01
	// SecHeaderLen covers verflags(1) + counter(4).
	SecHeaderLen = 5
	// SecMICLen is the message integrity code trailer length.
	SecMICLen = 4
	// SecOverhead is the total extra wire bytes a secured frame carries.
	SecOverhead = SecHeaderLen + SecMICLen
)

// HeaderLen returns the total header length for a packet of type t.
func HeaderLen(t Type) int {
	n := BaseHeaderLen
	if t.Routed() {
		n += ViaLen
	}
	if t.Stream() {
		n += StreamHeaderLen
	}
	return n
}

// MaxPayload returns the largest application payload a single packet of
// type t can carry.
func MaxPayload(t Type) int { return MaxFrameLen - HeaderLen(t) }

// Packet is one LoRaMesher frame.
type Packet struct {
	Dst  Address
	Src  Address
	Type Type
	// Via is the link-layer next hop for routed packets. Intermediate
	// nodes rewrite it on each hop; receivers ignore frames whose Via is
	// neither their address nor broadcast.
	Via Address
	// SeqID identifies a reliable stream (sender-scoped).
	SeqID uint8
	// Number is the stream chunk count (SYNC), chunk index (XL_DATA,
	// ACK, LOST), or zero.
	Number uint16
	// Payload is the application or routing-table bytes. On a secured
	// frame fresh from Unmarshal this is still ciphertext; meshsec's Open
	// replaces it with plaintext after the MIC verifies.
	Payload []byte

	// Secured marks a frame carrying the versioned security header and
	// MIC trailer (type byte high bit on the wire).
	Secured bool
	// SecFlags is the lower nibble of the verflags byte (SecFlag*).
	SecFlags uint8
	// Counter is the originator's monotonic frame counter: the AEAD
	// nonce input and replay-window position. Hop-invariant, like Src.
	Counter uint32
	// MIC is the message integrity code trailer. Zero until meshsec
	// seals the encoded frame; preserved verbatim by Unmarshal.
	MIC [SecMICLen]byte
}

// Errors returned by the codec.
var (
	ErrTooLarge   = errors.New("packet: frame exceeds 255-byte PHY limit")
	ErrTruncated  = errors.New("packet: frame truncated")
	ErrBadType    = errors.New("packet: unknown packet type")
	ErrBadSize    = errors.New("packet: size field does not match frame length")
	ErrBadVersion = errors.New("packet: unsupported security header version")
)

// WireLen returns the encoded length of p in bytes.
func (p *Packet) WireLen() int {
	n := HeaderLen(p.Type) + len(p.Payload)
	if p.Secured {
		n += SecOverhead
	}
	return n
}

// Validate checks that the packet can be encoded.
func (p *Packet) Validate() error {
	if !p.Type.Valid() {
		return fmt.Errorf("%w: 0x%02X", ErrBadType, uint8(p.Type))
	}
	if p.WireLen() > MaxFrameLen {
		return fmt.Errorf("%w: %d bytes of %v", ErrTooLarge, p.WireLen(), p.Type)
	}
	return nil
}

// Marshal encodes the packet into wire format.
func Marshal(p *Packet) ([]byte, error) {
	return AppendMarshal(make([]byte, 0, p.WireLen()), p)
}

// AppendMarshal encodes the packet into wire format, appending to dst and
// returning the extended slice. Callers on hot paths pass a reusable
// buffer (`buf[:0]`) to keep encoding allocation-free; passing nil
// behaves like Marshal.
func AppendMarshal(dst []byte, p *Packet) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	buf := dst
	buf = binary.BigEndian.AppendUint16(buf, uint16(p.Dst))
	buf = binary.BigEndian.AppendUint16(buf, uint16(p.Src))
	t := byte(p.Type)
	if p.Secured {
		t |= secTypeBit
	}
	buf = append(buf, t, byte(p.WireLen()))
	if p.Secured {
		buf = append(buf, SecVersion<<4|p.SecFlags&0x0F)
		buf = binary.BigEndian.AppendUint32(buf, p.Counter)
	}
	if p.Type.Routed() {
		buf = binary.BigEndian.AppendUint16(buf, uint16(p.Via))
	}
	if p.Type.Stream() {
		buf = append(buf, p.SeqID)
		buf = binary.BigEndian.AppendUint16(buf, p.Number)
	}
	buf = append(buf, p.Payload...)
	if p.Secured {
		buf = append(buf, p.MIC[:]...)
	}
	return buf, nil
}

// Unmarshal decodes a wire-format frame. The returned packet's payload
// aliases buf; callers that retain the packet beyond the buffer's lifetime
// must copy it.
func Unmarshal(buf []byte) (*Packet, error) {
	p := new(Packet)
	if err := UnmarshalInto(p, buf); err != nil {
		return nil, err
	}
	return p, nil
}

// UnmarshalInto is Unmarshal into a packet the caller owns, overwriting
// every field, so a receive path that decodes each frame into the same
// Packet allocates nothing. After an error p must not be used.
func UnmarshalInto(p *Packet, buf []byte) error {
	if len(buf) < BaseHeaderLen {
		return fmt.Errorf("%w: %d bytes", ErrTruncated, len(buf))
	}
	if len(buf) > MaxFrameLen {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(buf))
	}
	*p = Packet{
		Dst:     Address(binary.BigEndian.Uint16(buf[0:2])),
		Src:     Address(binary.BigEndian.Uint16(buf[2:4])),
		Type:    Type(buf[4] &^ secTypeBit),
		Secured: buf[4]&secTypeBit != 0,
	}
	if !p.Type.Valid() {
		return fmt.Errorf("%w: 0x%02X", ErrBadType, buf[4])
	}
	if int(buf[5]) != len(buf) {
		return fmt.Errorf("%w: field %d, frame %d", ErrBadSize, buf[5], len(buf))
	}
	off := BaseHeaderLen
	if p.Secured {
		if len(buf) < off+SecHeaderLen+SecMICLen {
			return fmt.Errorf("%w: missing security header", ErrTruncated)
		}
		if v := buf[off] >> 4; v != SecVersion {
			return fmt.Errorf("%w: %d", ErrBadVersion, v)
		}
		p.SecFlags = buf[off] & 0x0F
		p.Counter = binary.BigEndian.Uint32(buf[off+1 : off+5])
		off += SecHeaderLen
	}
	if p.Type.Routed() {
		if len(buf) < off+ViaLen {
			return fmt.Errorf("%w: missing via", ErrTruncated)
		}
		p.Via = Address(binary.BigEndian.Uint16(buf[off : off+2]))
		off += ViaLen
	}
	if p.Type.Stream() {
		if len(buf) < off+StreamHeaderLen {
			return fmt.Errorf("%w: missing stream header", ErrTruncated)
		}
		p.SeqID = buf[off]
		p.Number = binary.BigEndian.Uint16(buf[off+1 : off+3])
		off += StreamHeaderLen
	}
	if p.Secured {
		if len(buf) < off+SecMICLen {
			return fmt.Errorf("%w: missing MIC trailer", ErrTruncated)
		}
		copy(p.MIC[:], buf[len(buf)-SecMICLen:])
		p.Payload = buf[off : len(buf)-SecMICLen]
	} else {
		p.Payload = buf[off:]
	}
	return nil
}

// TraceID hashes the packet's end-to-end identity — every field except
// the hop-local Via — into a stable 64-bit ID. Because the hashed fields
// are invariant along the path, every node that handles the packet
// computes the same ID with no wire-format change; it keys per-packet
// causal tracing and the forwarding loop-breaker.
//
// Legacy frames hash (dst, src, type, seqID, number, payload), so two
// packets with identical fields and payload share an ID — the dedup
// property forwarding wants, and the documented hazard for applications
// that send identical payloads twice. Secured frames instead hash the
// originator's frame counter and skip the payload: the counter is unique
// per origin, so identical payloads sent twice get distinct IDs (fixing
// the hazard), duplicate copies of the same transmission still collide
// (preserving dedup), and the ID is identical whether the payload bytes
// at hand are ciphertext or plaintext.
func (p *Packet) TraceID() uint64 {
	h := fnv.New64a()
	if p.Secured {
		var hdr [13]byte
		binary.BigEndian.PutUint16(hdr[0:2], uint16(p.Dst))
		binary.BigEndian.PutUint16(hdr[2:4], uint16(p.Src))
		hdr[4] = byte(p.Type)
		hdr[5] = p.SeqID
		binary.BigEndian.PutUint16(hdr[6:8], p.Number)
		hdr[8] = secTypeBit // domain separator vs the legacy hash
		binary.BigEndian.PutUint32(hdr[9:13], p.Counter)
		h.Write(hdr[:])
		return h.Sum64()
	}
	var hdr [8]byte
	binary.BigEndian.PutUint16(hdr[0:2], uint16(p.Dst))
	binary.BigEndian.PutUint16(hdr[2:4], uint16(p.Src))
	hdr[4] = byte(p.Type)
	hdr[5] = p.SeqID
	binary.BigEndian.PutUint16(hdr[6:8], p.Number)
	h.Write(hdr[:])
	h.Write(p.Payload)
	return h.Sum64()
}

// Clone returns a deep copy of p, including the payload. Forwarding rewrites
// Via in place, so every queue boundary clones.
func (p *Packet) Clone() *Packet {
	q := *p
	if p.Payload != nil {
		q.Payload = make([]byte, len(p.Payload))
		copy(q.Payload, p.Payload)
	}
	return &q
}

func (p *Packet) String() string {
	s := fmt.Sprintf("%v %v->%v", p.Type, p.Src, p.Dst)
	if p.Type.Routed() {
		s += fmt.Sprintf(" via %v", p.Via)
	}
	if p.Type.Stream() {
		s += fmt.Sprintf(" seq=%d num=%d", p.SeqID, p.Number)
	}
	if p.Secured {
		s += fmt.Sprintf(" sec(ctr=%d)", p.Counter)
	}
	return fmt.Sprintf("%s len=%d", s, p.WireLen())
}
