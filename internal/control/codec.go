// Package control is the mesh's self-healing control plane: a versioned
// desired-state document (internal/control.State) reconciled onto live
// nodes by a Controller that diffs acknowledged node state against the
// document, issues typed in-band commands over the gateway downlink
// channel, and runs recovery playbooks off the health monitor's
// violation feed (blackhole → targeted HELLO purge, silent node →
// scheduled reboot, replay anomaly → network rekey).
//
// This file is the wire codec. Every command — including the key
// rotation that PR 5 shipped as an ad-hoc magic payload — rides one
// framed format with a version byte for forward compatibility:
//
//	magic(2) | ver(1) | op(1) | seq(4) | epoch(4) | body...
//
// Commands travel as ordinary application payloads (sealed like any
// other frame on a secured mesh); core intercepts them on delivery, so
// they never leak to the application. The node answers every command
// with a Report carrying the same seq plus a snapshot of its observed
// configuration — the feedback the controller's convergence detection
// keys on.
package control

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/meshsec"
	"repro/internal/packet"
)

// Op identifies a command type.
type Op uint8

// The typed command set.
const (
	// OpSetConfig reconciles the node's runtime configuration: HELLO
	// period, duty-cycle class, radio SF profile, sleep schedule. Zero
	// fields mean "leave unchanged".
	OpSetConfig Op = 1
	// OpTriggerHello forces an immediate HELLO beacon, optionally first
	// purging routes (withdraw everything via Via, or the current next
	// hop toward Dst) — the blackhole playbook.
	OpTriggerHello Op = 2
	// OpReboot asks the host to power-cycle the node after Delay — the
	// silent-node playbook. The engine cannot reboot itself; a host that
	// cannot either reports StatusUnsupported.
	OpReboot Op = 3
	// OpRekey drives the loss-free three-phase key rotation — the
	// replay playbook, promoted from PR 5's ad-hoc meshsec rekey
	// payload. With Stage set the node only stages the key for
	// acceptance (it keeps sealing under the old key); bare, it rotates
	// the seal key (the old key stays live for Open); with Commit set it
	// retires the old key, the moment replayed old-key traffic stops
	// authenticating. The controller runs each phase as a full
	// farthest-first wave before starting the next, so no frame in
	// either direction ever fails authentication mid-rollout.
	OpRekey Op = 4
)

func (o Op) String() string {
	switch o {
	case OpSetConfig:
		return "set_config"
	case OpTriggerHello:
		return "trigger_hello"
	case OpReboot:
		return "reboot"
	case OpRekey:
		return "rekey"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// CodecVersion is the wire format version this build speaks. Receivers
// ignore frames with a newer version instead of misapplying them; the
// controller counts the resulting retry exhaustion as a stalled node,
// which is the honest outcome for a fleet mid-upgrade.
const CodecVersion = 1

// Command and report magics: two bytes that cannot begin a sensible
// application payload, distinct per direction.
var (
	cmdMagic = [2]byte{0xC7, 'C'}
	repMagic = [2]byte{0xC7, 'R'}
)

const cmdHeaderLen = 2 + 1 + 1 + 4 + 4 // magic ver op seq epoch

// Command is one typed control-plane instruction.
type Command struct {
	Op Op
	// Seq matches a command to its report; the controller keeps it
	// stable across retries so a node can ack idempotently.
	Seq uint32
	// Epoch is the desired-state document version this command realizes
	// (OpSetConfig); nodes re-ack an epoch they already applied without
	// re-applying it.
	Epoch uint32

	// OpSetConfig fields; zero = leave unchanged.
	HelloPeriod time.Duration
	DutyCycle   float64
	SF          int
	Awake       time.Duration
	Sleep       time.Duration

	// OpTriggerHello fields; zero = no purge, just beacon.
	Dst packet.Address
	Via packet.Address

	// OpReboot field; zero lets the host pick its default.
	Delay time.Duration

	// OpRekey fields: Stage and Commit select rollout phases one and
	// three; bare (neither set) is phase two, the seal-key rotation.
	Stage    bool
	Commit   bool
	KeyEpoch uint32
	Key      meshsec.Key
}

// MarshalCommand encodes c for the air.
func MarshalCommand(c Command) []byte {
	b := make([]byte, cmdHeaderLen, cmdHeaderLen+21)
	copy(b, cmdMagic[:])
	b[2] = CodecVersion
	b[3] = byte(c.Op)
	binary.BigEndian.PutUint32(b[4:], c.Seq)
	binary.BigEndian.PutUint32(b[8:], c.Epoch)
	switch c.Op {
	case OpSetConfig:
		var body [11]byte
		binary.BigEndian.PutUint32(body[0:], clampU32(c.HelloPeriod.Milliseconds()))
		binary.BigEndian.PutUint16(body[4:], dutyToWire(c.DutyCycle))
		body[6] = byte(c.SF)
		binary.BigEndian.PutUint16(body[7:], clampU16(int64(c.Awake/time.Second)))
		binary.BigEndian.PutUint16(body[9:], clampU16(int64(c.Sleep/time.Second)))
		b = append(b, body[:]...)
	case OpTriggerHello:
		var body [4]byte
		binary.BigEndian.PutUint16(body[0:], uint16(c.Dst))
		binary.BigEndian.PutUint16(body[2:], uint16(c.Via))
		b = append(b, body[:]...)
	case OpReboot:
		var body [2]byte
		binary.BigEndian.PutUint16(body[0:], clampU16(int64(c.Delay/time.Second)))
		b = append(b, body[:]...)
	case OpRekey:
		var body [21]byte
		if c.Commit {
			body[0] |= 1
		}
		if c.Stage {
			body[0] |= 2
		}
		binary.BigEndian.PutUint32(body[1:], c.KeyEpoch)
		copy(body[5:], c.Key[:])
		b = append(b, body[:]...)
	}
	return b
}

// cmdBodyLen maps each op to its exact body length.
func cmdBodyLen(op Op) (int, bool) {
	switch op {
	case OpSetConfig:
		return 11, true
	case OpTriggerHello:
		return 4, true
	case OpReboot:
		return 2, true
	case OpRekey:
		return 21, true
	}
	return 0, false
}

// ParseCommand reports whether b is a control command and decodes it.
// Unknown versions, unknown ops, length mismatches, and field values no
// encoder produces all return false: the payload then falls through to
// the application like any other.
func ParseCommand(b []byte) (Command, bool) {
	var c Command
	if len(b) < cmdHeaderLen || b[0] != cmdMagic[0] || b[1] != cmdMagic[1] {
		return c, false
	}
	if b[2] != CodecVersion {
		return c, false
	}
	c.Op = Op(b[3])
	want, ok := cmdBodyLen(c.Op)
	if !ok || len(b) != cmdHeaderLen+want {
		return Command{}, false
	}
	c.Seq = binary.BigEndian.Uint32(b[4:])
	c.Epoch = binary.BigEndian.Uint32(b[8:])
	body := b[cmdHeaderLen:]
	switch c.Op {
	case OpSetConfig:
		c.HelloPeriod = time.Duration(binary.BigEndian.Uint32(body[0:])) * time.Millisecond
		if c.DutyCycle, ok = dutyFromWire(binary.BigEndian.Uint16(body[4:])); !ok {
			return Command{}, false
		}
		c.SF = int(body[6])
		c.Awake = time.Duration(binary.BigEndian.Uint16(body[7:])) * time.Second
		c.Sleep = time.Duration(binary.BigEndian.Uint16(body[9:])) * time.Second
	case OpTriggerHello:
		c.Dst = packet.Address(binary.BigEndian.Uint16(body[0:]))
		c.Via = packet.Address(binary.BigEndian.Uint16(body[2:]))
	case OpReboot:
		c.Delay = time.Duration(binary.BigEndian.Uint16(body[0:])) * time.Second
	case OpRekey:
		if body[0]&^3 != 0 {
			return Command{}, false // a phase flag this version does not know
		}
		c.Commit = body[0]&1 != 0
		c.Stage = body[0]&2 != 0
		c.KeyEpoch = binary.BigEndian.Uint32(body[1:])
		copy(c.Key[:], body[5:])
	}
	return c, true
}

// Status is a report's outcome classification.
type Status uint8

// Report outcomes.
const (
	// StatusOK: the command was applied (or had already been applied —
	// idempotent re-ack).
	StatusOK Status = 0
	// StatusUnsupported: the node (or its host) cannot perform the
	// command. Terminal — retrying will not help, so the controller
	// stops trying.
	StatusUnsupported Status = 1
	// StatusError: the command was rejected (bad parameter, key
	// mismatch). The controller re-plans from the node's reported state.
	StatusError Status = 2
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusUnsupported:
		return "unsupported"
	case StatusError:
		return "error"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

const reportLen = 2 + 1 + 1 + 4 + 1 + 4 + 4 + 4 + 2 + 1 // magic ver op seq status epoch keyepoch hello duty sf

// Report is a node's answer to one command: the outcome plus a snapshot
// of its observed configuration, which is how node state reaches the
// controller's diff without a separate telemetry format.
type Report struct {
	Op     Op
	Seq    uint32
	Status Status

	// Observed state after the command.
	Epoch       uint32
	KeyEpoch    uint32
	HelloPeriod time.Duration
	DutyCycle   float64
	SF          int
}

// MarshalReport encodes r for the air.
func MarshalReport(r Report) []byte {
	b := make([]byte, reportLen)
	copy(b, repMagic[:])
	b[2] = CodecVersion
	b[3] = byte(r.Op)
	binary.BigEndian.PutUint32(b[4:], r.Seq)
	b[8] = byte(r.Status)
	binary.BigEndian.PutUint32(b[9:], r.Epoch)
	binary.BigEndian.PutUint32(b[13:], r.KeyEpoch)
	binary.BigEndian.PutUint32(b[17:], clampU32(r.HelloPeriod.Milliseconds()))
	binary.BigEndian.PutUint16(b[21:], dutyToWire(r.DutyCycle))
	b[23] = byte(r.SF)
	return b
}

// ParseReport reports whether b is a control report and decodes it.
func ParseReport(b []byte) (Report, bool) {
	var r Report
	if len(b) != reportLen || b[0] != repMagic[0] || b[1] != repMagic[1] || b[2] != CodecVersion {
		return r, false
	}
	r.Op = Op(b[3])
	r.Seq = binary.BigEndian.Uint32(b[4:])
	r.Status = Status(b[8])
	r.Epoch = binary.BigEndian.Uint32(b[9:])
	r.KeyEpoch = binary.BigEndian.Uint32(b[13:])
	r.HelloPeriod = time.Duration(binary.BigEndian.Uint32(b[17:])) * time.Millisecond
	r.SF = int(b[23])
	var ok bool
	r.DutyCycle, ok = dutyFromWire(binary.BigEndian.Uint16(b[21:]))
	return r, ok
}

// IsReport reports whether b carries the report magic (any version) —
// the cheap pre-check hosts use to count or route control feedback
// without a full parse.
func IsReport(b []byte) bool {
	return len(b) >= 3 && b[0] == repMagic[0] && b[1] == repMagic[1]
}

// dutyToWire encodes a duty-cycle fraction in 1e-4 units (0.01 → 100),
// clamped to [0, 1].
func dutyToWire(f float64) uint16 {
	if f <= 0 {
		return 0
	}
	if f >= 1 {
		return 10000
	}
	return uint16(f*10000 + 0.5)
}

// dutyFromWire decodes dutyToWire's units; ok is false past 10000, a
// fraction above 1 that no encoder produces.
func dutyFromWire(u uint16) (f float64, ok bool) {
	return float64(u) / 10000, u <= 10000
}

func clampU32(v int64) uint32 {
	if v < 0 {
		return 0
	}
	if v > int64(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(v)
}

func clampU16(v int64) uint16 {
	if v < 0 {
		return 0
	}
	if v > int64(^uint16(0)) {
		return ^uint16(0)
	}
	return uint16(v)
}
