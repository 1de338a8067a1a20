package control

import (
	"strings"
	"testing"
	"time"

	"repro/internal/meshsec"
	"repro/internal/packet"
)

var testKey = meshsec.Key{
	0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
	0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c,
}

func TestCommandRoundTrip(t *testing.T) {
	cmds := []Command{
		{Op: OpSetConfig, Seq: 7, Epoch: 3, HelloPeriod: 90 * time.Second,
			DutyCycle: 0.01, SF: 9, Awake: 20 * time.Second, Sleep: 40 * time.Second},
		{Op: OpSetConfig, Seq: 8, Epoch: 3}, // all-zero body: leave everything alone
		{Op: OpTriggerHello, Seq: 9, Dst: 0x0004, Via: 0x0002},
		{Op: OpTriggerHello, Seq: 10}, // bare beacon, no purge
		{Op: OpReboot, Seq: 11, Delay: 5 * time.Second},
		{Op: OpRekey, Seq: 12, Stage: true, KeyEpoch: 2, Key: testKey},
		{Op: OpRekey, Seq: 13, KeyEpoch: 2, Key: testKey},
		{Op: OpRekey, Seq: 14, Commit: true, KeyEpoch: 2, Key: testKey},
	}
	for _, want := range cmds {
		got, ok := ParseCommand(MarshalCommand(want))
		if !ok {
			t.Fatalf("%s seq=%d: did not parse back", want.Op, want.Seq)
		}
		if got != want {
			t.Errorf("%s roundtrip:\n got %+v\nwant %+v", want.Op, got, want)
		}
	}
}

func TestCommandRejectsForeignPayloads(t *testing.T) {
	good := MarshalCommand(Command{Op: OpReboot, Seq: 1})
	cases := map[string][]byte{
		"empty":          nil,
		"application":    []byte("hello sensor 42"),
		"short header":   good[:4],
		"bad magic":      append([]byte{0x00, 0x01}, good[2:]...),
		"report magic":   MarshalReport(Report{Op: OpReboot, Seq: 1}),
		"newer version":  func() []byte { b := append([]byte(nil), good...); b[2] = CodecVersion + 1; return b }(),
		"unknown op":     func() []byte { b := append([]byte(nil), good...); b[3] = 0x7F; return b }(),
		"truncated body": good[:len(good)-1],
		"oversize body":  append(append([]byte(nil), good...), 0xAA),
	}
	for name, b := range cases {
		if _, ok := ParseCommand(b); ok {
			t.Errorf("%s: parsed as a command", name)
		}
	}
}

func TestReportRoundTrip(t *testing.T) {
	want := Report{Op: OpSetConfig, Seq: 42, Status: StatusError,
		Epoch: 5, KeyEpoch: 2, HelloPeriod: 2 * time.Minute, DutyCycle: 0.1, SF: 12}
	b := MarshalReport(want)
	if !IsReport(b) {
		t.Fatal("IsReport = false for a marshaled report")
	}
	got, ok := ParseReport(b)
	if !ok {
		t.Fatal("report did not parse back")
	}
	if got != want {
		t.Fatalf("report roundtrip:\n got %+v\nwant %+v", got, want)
	}
	if _, ok := ParseReport(b[:len(b)-1]); ok {
		t.Error("truncated report parsed")
	}
	if IsReport(MarshalCommand(Command{Op: OpReboot})) {
		t.Error("IsReport = true for a command")
	}
	if _, ok := ParseCommand(b); ok {
		t.Error("report parsed as a command")
	}
}

func TestDutyWireQuantization(t *testing.T) {
	for _, f := range []float64{0, 0.001, 0.01, 0.1, 0.5, 1} {
		got, ok := dutyFromWire(dutyToWire(f))
		if diff := got - f; !ok || diff > 1e-4 || diff < -1e-4 {
			t.Errorf("duty %v came back as %v", f, got)
		}
	}
	if dutyToWire(2) != 10000 || dutyToWire(-1) != 0 {
		t.Error("duty clamp broken")
	}
	if _, ok := dutyFromWire(10001); ok {
		t.Error("a duty fraction above 1 decoded")
	}
}

func TestKeyForEpoch(t *testing.T) {
	if KeyForEpoch(testKey, 0) != testKey {
		t.Error("epoch 0 must be the base key")
	}
	k1, k2 := KeyForEpoch(testKey, 1), KeyForEpoch(testKey, 2)
	if k1 == testKey || k2 == testKey || k1 == k2 {
		t.Error("epoch keys must be pairwise distinct from the base")
	}
	if KeyForEpoch(testKey, 2) != k2 {
		t.Error("derivation is not deterministic")
	}
	// The derivation binds the epoch number, not just the chain
	// position: epoch 1 under a different base diverges immediately.
	if KeyForEpoch(k1, 1) == k1 || KeyForEpoch(k1, 1) == KeyForEpoch(k2, 1) {
		t.Error("derived keys must depend on the base key")
	}
}

func TestOpAndStatusStrings(t *testing.T) {
	for s, want := range map[string]string{
		OpSetConfig.String():      "set_config",
		OpRekey.String():          "rekey",
		Op(99).String():           "op(99)",
		StatusOK.String():         "ok",
		Status(99).String():       "status(99)",
		StatusError.String():      "error",
		packet.Broadcast.String(): "FFFF",
	} {
		if !strings.Contains(s, want) && s != want {
			t.Errorf("string %q, want %q", s, want)
		}
	}
}
