package control

import (
	"crypto/aes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"

	"repro/internal/faults"
	"repro/internal/meshsec"
	"repro/internal/packet"
)

// Duration is the JSON duration the fault plans use: a Go duration string
// ("90s", "2m30s"), with plain nanosecond numbers also accepted.
type Duration = faults.Duration

// NodeSpec is the desired configuration for one node (or the fleet
// default). Zero fields mean "no opinion — leave the node's value
// alone"; per-node specs override the defaults field by field.
type NodeSpec struct {
	// HelloPeriod is the routing-beacon interval.
	HelloPeriod Duration `json:"hello_period,omitempty"`
	// DutyCycle is the airtime budget fraction (0.01 = EU868 g1;
	// 1 disables regulation).
	DutyCycle float64 `json:"duty_cycle,omitempty"`
	// SF is the LoRa spreading factor (7–12). Applying it is a radio
	// reconfiguration, which hosts model as a reboot.
	SF int `json:"sf,omitempty"`
	// Awake/Sleep arm a periodic sleep schedule for end devices; both
	// must be set together.
	Awake Duration `json:"awake,omitempty"`
	Sleep Duration `json:"sleep,omitempty"`
}

// merged returns sp with over's non-zero fields taking precedence.
func (sp NodeSpec) merged(over NodeSpec) NodeSpec {
	if over.HelloPeriod > 0 {
		sp.HelloPeriod = over.HelloPeriod
	}
	if over.DutyCycle > 0 {
		sp.DutyCycle = over.DutyCycle
	}
	if over.SF > 0 {
		sp.SF = over.SF
	}
	if over.Awake > 0 && over.Sleep > 0 {
		sp.Awake, sp.Sleep = over.Awake, over.Sleep
	}
	return sp
}

// State is one versioned desired-state document: what every node's
// configuration should be, declaratively. The controller reconciles
// live nodes toward it and re-reconciles whenever Version grows.
type State struct {
	// Version tags the document; nodes ack the version they applied, and
	// bumping it is how an operator pushes an edit. Zero disables config
	// reconciliation (playbooks still run).
	Version uint32 `json:"version"`
	// NetKey is the epoch-0 network key as 32 hex digits. With it set
	// the controller can run key rotations: the key for epoch e is
	// derived deterministically from NetKey (see KeyForEpoch), so the
	// document never has to carry rotated keys explicitly.
	NetKey string `json:"net_key,omitempty"`
	// KeyEpoch is the desired key epoch. The replay playbook bumps it;
	// operators can too. Zero means the base key, never rotated.
	KeyEpoch uint32 `json:"key_epoch,omitempty"`
	// Defaults applies to every node not overridden below.
	Defaults NodeSpec `json:"defaults,omitempty"`
	// Nodes overrides Defaults per node, keyed by the node's mesh
	// address in hex ("0003").
	Nodes map[string]NodeSpec `json:"nodes,omitempty"`
}

// Spec returns the effective desired spec for addr: Defaults overlaid
// with the node's own entry.
func (s *State) Spec(addr packet.Address) NodeSpec {
	sp := s.Defaults
	if over, ok := s.Nodes[addr.String()]; ok {
		return sp.merged(over)
	}
	// Accept lowercase and unpadded hex keys too; a hand-written
	// document should not silently miss its node.
	for k, over := range s.Nodes {
		if a, err := parseAddr(k); err == nil && a == addr {
			return sp.merged(over)
		}
	}
	return sp
}

// BaseKey parses NetKey. The second return is false when the document
// carries no key (rekey playbooks are then disabled).
func (s *State) BaseKey() (meshsec.Key, bool, error) {
	if s.NetKey == "" {
		return meshsec.Key{}, false, nil
	}
	k, err := meshsec.ParseKey(s.NetKey)
	if err != nil {
		return meshsec.Key{}, false, fmt.Errorf("control: net_key: %w", err)
	}
	return k, true, nil
}

// Validate checks the document.
func (s *State) Validate() error {
	if _, _, err := s.BaseKey(); err != nil {
		return err
	}
	if s.KeyEpoch > 0 && s.NetKey == "" {
		return fmt.Errorf("control: key_epoch %d needs net_key", s.KeyEpoch)
	}
	check := func(what string, sp NodeSpec) error {
		if sp.DutyCycle < 0 || sp.DutyCycle > 1 {
			return fmt.Errorf("control: %s duty_cycle %v outside [0,1]", what, sp.DutyCycle)
		}
		if sp.SF != 0 && (sp.SF < 7 || sp.SF > 12) {
			return fmt.Errorf("control: %s sf %d outside 7..12", what, sp.SF)
		}
		if sp.HelloPeriod < 0 || sp.Awake < 0 || sp.Sleep < 0 {
			return fmt.Errorf("control: %s has a negative duration", what)
		}
		if (sp.Awake > 0) != (sp.Sleep > 0) {
			return fmt.Errorf("control: %s needs awake and sleep both set (or neither)", what)
		}
		return nil
	}
	if err := check("defaults", s.Defaults); err != nil {
		return err
	}
	for k, sp := range s.Nodes {
		if _, err := parseAddr(k); err != nil {
			return fmt.Errorf("control: nodes key %q is not a hex address: %w", k, err)
		}
		if err := check("nodes["+k+"]", sp); err != nil {
			return err
		}
	}
	return nil
}

// parseAddr parses a hex mesh address ("0003", "3", "00ff").
func parseAddr(s string) (packet.Address, error) {
	v, err := strconv.ParseUint(s, 16, 16)
	if err != nil {
		return 0, err
	}
	return packet.Address(v), nil
}

// Load parses a JSON desired-state document. Unknown fields are
// rejected so a typo'd field fails loudly instead of silently leaving
// the fleet unreconciled.
func Load(r io.Reader) (*State, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s State
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("control: parse state: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadFile reads a desired-state document from a JSON file.
func LoadFile(path string) (*State, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("control: %w", err)
	}
	defer f.Close()
	s, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("control: %s: %w", path, err)
	}
	return s, nil
}

// KeyForEpoch derives the network key for a key epoch from the base
// (epoch-0) key: K_e = AES_{K_{e-1}}(pad || e). The chain is
// deterministic, so the controller, the test harness, and an operator
// holding the base key all agree on every epoch's key without the
// document ever carrying rotated keys — and a run stays a pure function
// of (plan, seed, state doc).
func KeyForEpoch(base meshsec.Key, epoch uint32) meshsec.Key {
	k := base
	var block [16]byte
	copy(block[:], "CTLKEYEPOCH.")
	for e := uint32(1); e <= epoch; e++ {
		binary.BigEndian.PutUint32(block[12:], e)
		c, err := aes.NewCipher(k[:])
		if err != nil {
			// Key sizes are fixed at 16 bytes; this cannot happen.
			panic(err)
		}
		var out [16]byte
		c.Encrypt(out[:], block[:])
		k = meshsec.Key(out)
	}
	return k
}
