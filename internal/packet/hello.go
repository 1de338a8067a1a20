package packet

import (
	"encoding/binary"
	"fmt"
)

// Role describes what a node advertises itself as in HELLO packets. The
// prototype reserves the field for application-level roles (e.g. a node
// that hosts a service); the routing protocol itself treats roles opaquely.
type Role uint8

// Advertised roles.
const (
	// RoleDefault is an ordinary mesh node.
	RoleDefault Role = iota + 1
	// RoleGateway marks a node bridging to another network.
	RoleGateway
	// RoleSink marks a data-collection endpoint, used by the sensornet
	// example to let field nodes discover the sink without provisioning.
	RoleSink
)

func (r Role) String() string {
	switch r {
	case RoleDefault:
		return "default"
	case RoleGateway:
		return "gateway"
	case RoleSink:
		return "sink"
	default:
		return fmt.Sprintf("Role(%d)", uint8(r))
	}
}

// HelloEntry is one routing-table row advertised in a HELLO packet:
// "I can reach Addr in Metric hops; it plays Role".
type HelloEntry struct {
	Addr   Address
	Metric uint8
	Role   Role
}

// HelloEntryLen is the wire size of one HelloEntry.
const HelloEntryLen = 4
const helloEntryLen = HelloEntryLen

// MaxHelloEntries is how many routing-table rows fit in one HELLO packet.
// Larger tables are split across consecutive HELLOs by the caller.
const MaxHelloEntries = (MaxFrameLen - BaseHeaderLen) / helloEntryLen

// MarshalHello encodes routing-table entries as a HELLO payload.
func MarshalHello(entries []HelloEntry) ([]byte, error) {
	if len(entries) > MaxHelloEntries {
		return nil, fmt.Errorf("packet: %d hello entries exceed the %d-entry frame limit",
			len(entries), MaxHelloEntries)
	}
	buf := make([]byte, 0, len(entries)*helloEntryLen)
	for _, e := range entries {
		buf = AppendHelloEntry(buf, e)
	}
	return buf, nil
}

// AppendHelloEntry appends e's HelloEntryLen-byte wire form to dst: a
// HELLO payload is a run of these.
func AppendHelloEntry(dst []byte, e HelloEntry) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(e.Addr))
	return append(dst, e.Metric, byte(e.Role))
}

// UnmarshalHello decodes a HELLO payload into routing-table entries.
func UnmarshalHello(payload []byte) ([]HelloEntry, error) {
	// Capped: an oversized payload, which AppendHello rejects, must not
	// size the allocation. There is no sender here, so Broadcast stands
	// in for one and the role is dropped.
	n := min(len(payload), MaxHelloEntries*helloEntryLen) / helloEntryLen
	rows, _, err := AppendHello(make([]HelloEntry, 0, n), payload, Broadcast)
	return rows, err
}

// AppendHello decodes a HELLO payload sent by src, appending its entries
// to dst, and returns the extended slice and src's role: the Role of its
// own row (a beacon leads with it, at metric 0; the last wins if it
// repeats), or RoleDefault when the rows list none. A receive path that
// passes the same buffer back (`rows[:0]`) decodes every beacon without
// allocating.
func AppendHello(dst []HelloEntry, payload []byte, src Address) ([]HelloEntry, Role, error) {
	if len(payload)%helloEntryLen != 0 {
		return nil, 0, fmt.Errorf("packet: hello payload length %d is not a multiple of %d",
			len(payload), helloEntryLen)
	}
	if len(payload) > MaxHelloEntries*helloEntryLen {
		return nil, 0, fmt.Errorf("packet: hello payload of %d entries exceeds the %d-entry frame limit",
			len(payload)/helloEntryLen, MaxHelloEntries)
	}
	role := RoleDefault
	for b := payload; len(b) >= helloEntryLen; b = b[helloEntryLen:] {
		e := HelloEntry{Addr: Address(binary.BigEndian.Uint16(b)), Metric: b[2], Role: Role(b[3])}
		if e.Addr == src {
			role = e.Role
		}
		dst = append(dst, e)
	}
	return dst, role, nil
}
