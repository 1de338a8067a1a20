// Package faults defines deterministic, seed-driven fault plans for the
// mesh simulator. A Plan is a declarative description of everything that
// goes wrong during a run — per-link Bernoulli or Gilbert-Elliott loss,
// asymmetric (one-way) links, scheduled link flaps, node crash/restart
// churn, clock-skewed HELLO timers, and payload bit corruption — and an
// Injector evaluates that plan against the simulator's virtual clock.
//
// Everything is a pure function of (plan, seed, virtual time): flap
// windows are computed from timestamps alone, and every random draw
// comes from a per-directed-link PRNG seeded from the plan seed and the
// link endpoints. Two runs with the same plan and seed therefore produce
// the same drop and corruption sequence byte for byte, which is what
// makes a failing chaos scenario replayable from its seed.
package faults

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// Link fault kinds.
const (
	// KindBernoulli drops each frame independently with probability P.
	KindBernoulli = "bernoulli"
	// KindGilbert is the two-state Gilbert-Elliott burst-loss model:
	// a good state losing LossGood of frames and a bad state losing
	// LossBad, with per-frame transition probabilities between them.
	KindGilbert = "gilbert"
	// KindBlock drops every frame on the link. A directional block
	// (Symmetric=false) models an asymmetric link: A hears B while B
	// never hears A.
	KindBlock = "block"
)

// Duration is a time.Duration that (un)marshals as a Go duration string
// ("90s", "2m30s") in JSON, with plain nanosecond numbers also accepted.
type Duration time.Duration

// D returns the native duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

// MarshalJSON renders the duration as its Go string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "90s"-style strings or nanosecond numbers.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, perr := time.ParseDuration(s)
		if perr != nil {
			return fmt.Errorf("bad duration %q: %w", s, perr)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("bad duration %s", b)
	}
	*d = Duration(n)
	return nil
}

// LinkFault attaches a loss model to the directed link From→To. With
// Symmetric set the same model (with an independent random stream per
// direction) applies To→From as well.
type LinkFault struct {
	From      int    `json:"from"`
	To        int    `json:"to"`
	Symmetric bool   `json:"symmetric,omitempty"`
	Kind      string `json:"kind"`

	// P is the per-frame loss probability for KindBernoulli.
	P float64 `json:"p,omitempty"`

	// Gilbert-Elliott parameters (KindGilbert). The chain starts good.
	PGoodToBad float64 `json:"p_good_to_bad,omitempty"`
	PBadToGood float64 `json:"p_bad_to_good,omitempty"`
	LossGood   float64 `json:"loss_good,omitempty"`
	LossBad    float64 `json:"loss_bad,omitempty"`
}

// Flap periodically severs the link between nodes A and B (both
// directions): down for Down at Start, Start+Period, ... Count times.
// Count <= 0 means the flapping never stops.
type Flap struct {
	A      int      `json:"a"`
	B      int      `json:"b"`
	Start  Duration `json:"start"`
	Period Duration `json:"period"`
	Down   Duration `json:"down"`
	Count  int      `json:"count,omitempty"`
}

// active reports whether this flap holds the link down at offset t from
// the plan epoch.
func (f Flap) active(t time.Duration) bool {
	start, period, down := f.Start.D(), f.Period.D(), f.Down.D()
	if t < start {
		return false
	}
	if period <= 0 {
		// Single window (or Count windows collapse to one).
		return t < start+down
	}
	n := int64((t - start) / period)
	if f.Count > 0 && n >= int64(f.Count) {
		return false
	}
	return (t-start)-time.Duration(n)*period < down
}

// end returns when this flap's last down-window closes, and false if it
// never stops.
func (f Flap) end() (time.Duration, bool) {
	if f.Count <= 0 && f.Period.D() > 0 {
		return 0, false
	}
	if f.Period.D() <= 0 {
		return f.Start.D() + f.Down.D(), true
	}
	return f.Start.D() + time.Duration(f.Count-1)*f.Period.D() + f.Down.D(), true
}

// Crash takes a node down at At, losing its routing table and all
// in-flight state. Downtime > 0 restarts it cold after that long;
// Downtime == 0 leaves it down for the rest of the run.
type Crash struct {
	Node     int      `json:"node"`
	At       Duration `json:"at"`
	Downtime Duration `json:"downtime,omitempty"`
}

// Corrupt flips 1..MaxBits random payload bits in a fraction Rate of
// otherwise-delivered frames. The virtual PHY CRC (packet.CRC16) then
// decides the frame's fate: a changed checksum drops it as a detected
// corruption; the rare unchanged checksum lets the mangled frame
// through, modelling the residual error rate of a 16-bit CRC.
type Corrupt struct {
	Rate    float64 `json:"rate"`
	MaxBits int     `json:"max_bits,omitempty"`
}

// Attacker places a hostile radio next to a victim node. It overhears
// the victim's neighborhood and, on a fixed schedule, transmits hostile
// frames chosen by the enabled behaviors:
//
//   - Replay retransmits a previously captured frame verbatim.
//   - ForgeHello fabricates a HELLO from an address that does not exist
//     in the mesh, advertising cheap routes (table poisoning).
//   - BitFlip retransmits a captured frame with flipped bits (MIC/CRC
//     tampering).
//
// With several behaviors enabled the attacker cycles through them
// deterministically. The attacker has no network key: against a secured
// mesh every injected frame must die at the receivers' MIC or replay
// checks, which is precisely what the chaos suite asserts.
type Attacker struct {
	// Node is the victim whose neighborhood the attacker camps in.
	Node int `json:"node"`
	// Start is when the first injection fires, relative to the plan epoch.
	Start Duration `json:"start"`
	// Period is the injection cadence.
	Period Duration `json:"period"`
	// Count caps the number of injections; <= 0 means no cap.
	Count int `json:"count,omitempty"`
	// CaptureUntil freezes the attacker's capture ring that long after
	// the plan epoch (zero = keep capturing forever). A frozen ring
	// models an attacker replaying a previously sniffed corpus — the
	// corpus a network key rotation is supposed to kill.
	CaptureUntil Duration `json:"capture_until,omitempty"`

	Replay     bool `json:"replay,omitempty"`
	ForgeHello bool `json:"forge_hello,omitempty"`
	BitFlip    bool `json:"bit_flip,omitempty"`
}

// Behaviors returns the enabled behavior names in cycling order.
func (a Attacker) Behaviors() []string {
	var bs []string
	if a.Replay {
		bs = append(bs, "replay")
	}
	if a.ForgeHello {
		bs = append(bs, "forge_hello")
	}
	if a.BitFlip {
		bs = append(bs, "bit_flip")
	}
	return bs
}

// ClockSkew multiplies one node's HELLO timer period by Factor,
// modelling the cheap-crystal drift real SX127x boards exhibit (a
// factor of 1.25 beacons 25% slower than its neighbors expect). Only the
// strategies that beacon (proactive, slotted) accept a plan with skews.
type ClockSkew struct {
	Node   int     `json:"node"`
	Factor float64 `json:"factor"`
}

// Plan is one complete fault schedule. The zero Plan injects nothing.
type Plan struct {
	Name       string      `json:"name,omitempty"`
	Links      []LinkFault `json:"links,omitempty"`
	Flaps      []Flap      `json:"flaps,omitempty"`
	Crashes    []Crash     `json:"crashes,omitempty"`
	Corrupt    *Corrupt    `json:"corrupt,omitempty"`
	ClockSkews []ClockSkew `json:"clock_skews,omitempty"`
	Attackers  []Attacker  `json:"attackers,omitempty"`
}

// Validate checks the plan against a simulation of n nodes.
func (p *Plan) Validate(n int) error {
	node := func(what string, i int) error {
		if i < 0 || i >= n {
			return fmt.Errorf("faults: %s references node %d, have %d nodes", what, i, n)
		}
		return nil
	}
	prob := func(what string, v float64) error {
		if v < 0 || v > 1 {
			return fmt.Errorf("faults: %s probability %v outside [0,1]", what, v)
		}
		return nil
	}
	for i, l := range p.Links {
		what := fmt.Sprintf("links[%d]", i)
		if err := node(what+".from", l.From); err != nil {
			return err
		}
		if err := node(what+".to", l.To); err != nil {
			return err
		}
		if l.From == l.To {
			return fmt.Errorf("faults: %s is a self-link", what)
		}
		switch l.Kind {
		case KindBernoulli:
			if err := prob(what+".p", l.P); err != nil {
				return err
			}
		case KindGilbert:
			for _, pr := range []struct {
				name string
				v    float64
			}{
				{".p_good_to_bad", l.PGoodToBad}, {".p_bad_to_good", l.PBadToGood},
				{".loss_good", l.LossGood}, {".loss_bad", l.LossBad},
			} {
				if err := prob(what+pr.name, pr.v); err != nil {
					return err
				}
			}
		case KindBlock:
			// No parameters.
		default:
			return fmt.Errorf("faults: %s has unknown kind %q", what, l.Kind)
		}
	}
	for i, f := range p.Flaps {
		what := fmt.Sprintf("flaps[%d]", i)
		if err := node(what+".a", f.A); err != nil {
			return err
		}
		if err := node(what+".b", f.B); err != nil {
			return err
		}
		if f.A == f.B {
			return fmt.Errorf("faults: %s flaps a self-link", what)
		}
		if f.Down.D() <= 0 {
			return fmt.Errorf("faults: %s down window must be positive", what)
		}
		if f.Period.D() > 0 && f.Down.D() > f.Period.D() {
			return fmt.Errorf("faults: %s down %v exceeds period %v", what, f.Down.D(), f.Period.D())
		}
	}
	for i, c := range p.Crashes {
		what := fmt.Sprintf("crashes[%d]", i)
		if err := node(what+".node", c.Node); err != nil {
			return err
		}
		if c.At.D() < 0 || c.Downtime.D() < 0 {
			return fmt.Errorf("faults: %s has negative time", what)
		}
	}
	if c := p.Corrupt; c != nil {
		if err := prob("corrupt.rate", c.Rate); err != nil {
			return err
		}
		if c.MaxBits < 0 {
			return fmt.Errorf("faults: corrupt.max_bits must be >= 0")
		}
	}
	for i, s := range p.ClockSkews {
		what := fmt.Sprintf("clock_skews[%d]", i)
		if err := node(what+".node", s.Node); err != nil {
			return err
		}
		if s.Factor <= 0 {
			return fmt.Errorf("faults: %s factor must be positive", what)
		}
	}
	for i, a := range p.Attackers {
		what := fmt.Sprintf("attackers[%d]", i)
		if err := node(what+".node", a.Node); err != nil {
			return err
		}
		if a.Start.D() < 0 {
			return fmt.Errorf("faults: %s has negative start", what)
		}
		if a.Period.D() <= 0 {
			return fmt.Errorf("faults: %s period must be positive", what)
		}
		if a.CaptureUntil.D() < 0 {
			return fmt.Errorf("faults: %s has negative capture_until", what)
		}
		if len(a.Behaviors()) == 0 {
			return fmt.Errorf("faults: %s enables no behavior (replay, forge_hello, bit_flip)", what)
		}
	}
	return nil
}

// LastFlapEnd returns when the final scheduled flap window closes (the
// moment after which the topology is stable again), or false if the
// plan has no flaps or a flap that never stops.
func (p *Plan) LastFlapEnd() (time.Duration, bool) {
	if len(p.Flaps) == 0 {
		return 0, false
	}
	var last time.Duration
	for _, f := range p.Flaps {
		e, ok := f.end()
		if !ok {
			return 0, false
		}
		if e > last {
			last = e
		}
	}
	return last, true
}

// FlapDown reports whether any flap holds the (unordered) link a–b down
// at offset t from the plan epoch.
func (p *Plan) FlapDown(t time.Duration, a, b int) bool {
	for _, f := range p.Flaps {
		if (f.A == a && f.B == b) || (f.A == b && f.B == a) {
			if f.active(t) {
				return true
			}
		}
	}
	return false
}

// Load parses a JSON-encoded plan. Unknown fields are rejected so a
// typo'd field name fails loudly instead of silently injecting nothing.
func Load(r io.Reader) (*Plan, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var p Plan
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("faults: parse plan: %w", err)
	}
	return &p, nil
}

// LoadFile reads a plan from a JSON file.
func LoadFile(path string) (*Plan, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("faults: %w", err)
	}
	defer f.Close()
	p, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("faults: %s: %w", path, err)
	}
	return p, nil
}
