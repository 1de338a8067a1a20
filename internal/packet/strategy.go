package packet

import (
	"encoding/binary"
	"fmt"
)

// The forwarding strategies' payload headers, each with one encoder (an
// Append method) and one decoder. A decoder refuses only what its layout
// cannot hold; each caller keeps its own rule on the rest (an exact
// RREQ/RREP length, an interest name of 1..MaxNameLen bytes).
const (
	// BreadcrumbLen is the wire size of a Breadcrumb.
	BreadcrumbLen = 5
	// MaxNameLen bounds an interest's content name.
	MaxNameLen = 64
	// NamedDataHeaderLen is producer(2) + hops(1) + nameLen(1); the name
	// and then the content follow.
	NamedDataHeaderLen = 4
	// slotBeaconLen is slots(1) + slot(1) + depth(1).
	slotBeaconLen = 3
)

// Breadcrumb is the header a flood accumulates hop by hop: an AODV route
// request or reply is exactly one, an ICN interest is one followed by the
// content name. ID is the request id or the interest nonce, Hops the
// relays crossed, PrevHop the node that transmitted this copy.
type Breadcrumb struct {
	ID      uint16
	Hops    uint8
	PrevHop Address
}

// Append appends b's wire form to dst and returns the extended slice.
func (b Breadcrumb) Append(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, b.ID)
	dst = append(dst, b.Hops)
	return binary.BigEndian.AppendUint16(dst, uint16(b.PrevHop))
}

// UnmarshalBreadcrumb decodes the breadcrumb at the front of payload and
// returns it with the bytes that follow (an interest's name).
func UnmarshalBreadcrumb(payload []byte) (Breadcrumb, []byte, error) {
	if len(payload) < BreadcrumbLen {
		return Breadcrumb{}, nil, fmt.Errorf("packet: breadcrumb of %d bytes, want >= %d", len(payload), BreadcrumbLen)
	}
	return Breadcrumb{
		ID:      binary.BigEndian.Uint16(payload[0:2]),
		Hops:    payload[2],
		PrevHop: Address(binary.BigEndian.Uint16(payload[3:5])),
	}, payload[BreadcrumbLen:], nil
}

// NamedData is an ICN named-data payload: Content, produced at Producer
// and Hops hops away from it, retracing the breadcrumbs of the interests
// for Name. Name rides a length byte, so it must not exceed 255 bytes.
type NamedData struct {
	Producer Address
	Hops     uint8
	Name     string
	Content  []byte
}

// Append appends d's wire form to dst and returns the extended slice.
func (d NamedData) Append(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(d.Producer))
	dst = append(dst, d.Hops, uint8(len(d.Name)))
	dst = append(dst, d.Name...)
	return append(dst, d.Content...)
}

// UnmarshalNamedData decodes a named-data payload. Content aliases
// payload; a caller that keeps it copies it.
func UnmarshalNamedData(payload []byte) (NamedData, error) {
	if len(payload) < NamedDataHeaderLen || len(payload) < NamedDataHeaderLen+int(payload[3]) {
		return NamedData{}, fmt.Errorf("packet: named-data payload of %d bytes, too short for its header and name", len(payload))
	}
	end := NamedDataHeaderLen + int(payload[3])
	return NamedData{
		Producer: Address(binary.BigEndian.Uint16(payload[0:2])),
		Hops:     payload[2],
		Name:     string(payload[NamedDataHeaderLen:end]),
		Content:  payload[end:],
	}, nil
}

// SlotBeacon is the slotted strategy's advertisement of a node's slot:
// Slot of Slots, at route depth Depth to the sink.
type SlotBeacon struct {
	Slots, Slot, Depth uint8
}

// Append appends s's wire form to dst and returns the extended slice.
func (s SlotBeacon) Append(dst []byte) []byte {
	return append(dst, s.Slots, s.Slot, s.Depth)
}

// UnmarshalSlotBeacon decodes a slot-beacon payload, exactly three bytes.
func UnmarshalSlotBeacon(payload []byte) (SlotBeacon, error) {
	if len(payload) != slotBeaconLen {
		return SlotBeacon{}, fmt.Errorf("packet: slot-beacon payload of %d bytes, want %d", len(payload), slotBeaconLen)
	}
	return SlotBeacon{Slots: payload[0], Slot: payload[1], Depth: payload[2]}, nil
}
