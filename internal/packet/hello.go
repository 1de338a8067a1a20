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
		buf = binary.BigEndian.AppendUint16(buf, uint16(e.Addr))
		buf = append(buf, e.Metric, byte(e.Role))
	}
	return buf, nil
}

// UnmarshalHello decodes a HELLO payload into routing-table entries.
func UnmarshalHello(payload []byte) ([]HelloEntry, error) {
	// Capped: an oversized payload, which AppendHello rejects, must not
	// size the allocation.
	n := min(len(payload), MaxHelloEntries*helloEntryLen) / helloEntryLen
	return AppendHello(make([]HelloEntry, 0, n), payload)
}

// AppendHello decodes a HELLO payload, appending its entries to dst and
// returning the extended slice; a receive path that passes the same
// buffer back (`rows[:0]`) decodes every beacon without allocating.
func AppendHello(dst []HelloEntry, payload []byte) ([]HelloEntry, error) {
	if len(payload)%helloEntryLen != 0 {
		return nil, fmt.Errorf("packet: hello payload length %d is not a multiple of %d",
			len(payload), helloEntryLen)
	}
	if len(payload) > MaxHelloEntries*helloEntryLen {
		return nil, fmt.Errorf("packet: hello payload of %d entries exceeds the %d-entry frame limit",
			len(payload)/helloEntryLen, MaxHelloEntries)
	}
	for off := 0; off < len(payload); off += helloEntryLen {
		dst = append(dst, HelloEntry{
			Addr:   Address(binary.BigEndian.Uint16(payload[off : off+2])),
			Metric: payload[off+2],
			Role:   Role(payload[off+3]),
		})
	}
	return dst, nil
}
