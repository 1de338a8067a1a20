package control

import (
	"bytes"
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
