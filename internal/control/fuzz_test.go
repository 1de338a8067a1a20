package control

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/meshsec"
)

// FuzzParseCommand drives both control decoders with arbitrary payloads —
// they sit where any node's application bytes arrive. Neither may panic,
// and whatever one accepts must re-marshal to the bytes it was parsed
// from: a frame the codec cannot reproduce is one it should have refused.
func FuzzParseCommand(f *testing.F) {
	for _, c := range []Command{
		{Op: OpSetConfig, Seq: 1, Epoch: 2, HelloPeriod: 90 * time.Second, DutyCycle: 0.01, SF: 9, Awake: 10 * time.Second, Sleep: time.Minute},
		{Op: OpTriggerHello, Seq: 3, Dst: 0x0004, Via: 0x0002},
		{Op: OpReboot, Seq: 4, Delay: 5 * time.Second},
		{Op: OpRekey, Seq: 5, Stage: true, KeyEpoch: 6, Key: meshsec.Key{1, 2, 3}},
		{Op: OpRekey, Seq: 5, Commit: true, KeyEpoch: 6},
	} {
		f.Add(MarshalCommand(c))
	}
	f.Add(MarshalReport(Report{Op: OpSetConfig, Seq: 1, Status: StatusError, Epoch: 2, KeyEpoch: 3, HelloPeriod: 2 * time.Minute, DutyCycle: 1, SF: 12}))
	f.Add([]byte{})
	f.Add([]byte{0xC7, 'C', CodecVersion, byte(OpReboot)})

	f.Fuzz(func(t *testing.T, data []byte) {
		if c, ok := ParseCommand(data); ok {
			if out := MarshalCommand(c); !bytes.Equal(out, data) {
				t.Fatalf("command parse/marshal not identity:\n in  %x\n out %x\n %+v", data, out, c)
			}
		}
		if r, ok := ParseReport(data); ok {
			if out := MarshalReport(r); !bytes.Equal(out, data) {
				t.Fatalf("report parse/marshal not identity:\n in  %x\n out %x\n %+v", data, out, r)
			}
		}
	})
}

// FuzzLoadState drives the desired-state loader with arbitrary documents:
// the file is operator input, read by meshsim and meshgw. Load must not
// panic; a document with a top-level field State does not declare — the
// retired `slotted` section included — must be refused; and whatever
// loads validates, answers Spec, and re-marshals to a document that
// loads. The committed seeds (testdata/fuzz/FuzzLoadState) are the
// documents the repo ships: README's, state_test's, check.sh's.
func FuzzLoadState(f *testing.F) {
	known := []string{"version", "net_key", "key_epoch", "defaults", "nodes"}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var fields map[string]json.RawMessage
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&fields); err != nil {
			t.Fatalf("loaded a document that is not a JSON object: %v\n%s", err, data)
		}
	field:
		for name := range fields {
			for _, k := range known {
				if strings.EqualFold(name, k) {
					continue field
				}
			}
			t.Fatalf("loaded a document with unknown field %q\n%s", name, data)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("loaded state does not validate: %v\n%s", err, data)
		}
		s.Spec(0x0004)
		doc, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshal of a loaded state: %v\n%+v", err, s)
		}
		if _, err := Load(bytes.NewReader(doc)); err != nil {
			t.Fatalf("re-marshalled state does not load: %v\n%s", err, doc)
		}
	})
}
