package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

func TestBuildTopologyKinds(t *testing.T) {
	for _, kind := range []string{"line", "grid", "star", "random"} {
		topo, err := buildTopology(kind, 6, 1)
		if err != nil {
			t.Errorf("%s: %v", kind, err)
			continue
		}
		if topo.N() < 6 {
			t.Errorf("%s produced %d nodes, want >= 6", kind, topo.N())
		}
	}
	if _, err := buildTopology("klein-bottle", 6, 1); err == nil {
		t.Error("unknown topology: want error")
	}
}

func TestPrintMapRendersEveryNode(t *testing.T) {
	topo, err := buildTopology("line", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	printMap(&sb, topo)
	out := sb.String()
	for _, label := range []string{"0", "1", "2", "3"} {
		if !strings.Contains(out, label) {
			t.Errorf("map missing node %s:\n%s", label, out)
		}
	}
	if !strings.Contains(out, "km)") {
		t.Error("map missing scale line")
	}
}

// opts returns a tiny base scenario; tests tweak what they need.
func opts() options {
	return options{
		topology: "line", n: 3, strategy: "proactive",
		duration: 600e9, traffic: "pairs", interval: 300e9, hello: 120e9,
		seed: 1, shards: -1,
	}
}

func TestRunSmoke(t *testing.T) {
	// End-to-end CLI logic on a tiny scenario (correctness is "no error").
	var out bytes.Buffer
	if err := run(&out, opts()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "per-node summary") {
		t.Error("report missing per-node summary")
	}
	o := opts()
	o.strategy, o.duration, o.traffic = "flooding", 60e9, "none"
	if err := run(&out, o); err != nil {
		t.Fatal(err)
	}
	o = opts()
	o.strategy, o.duration = "reactive", 60e9
	if err := run(&out, o); err != nil {
		t.Fatal(err)
	}
	o = opts()
	o.traffic = "bogus"
	if err := run(&out, o); err == nil {
		t.Error("bogus traffic pattern: want error")
	}
}

func TestRunTraceOutEmitsJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	o := opts()
	o.traceOut = path
	var out bytes.Buffer
	if err := run(&out, o); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	evs, err := trace.ReadJSONL(f)
	if err != nil {
		t.Fatalf("trace-out is not valid JSONL: %v", err)
	}
	if len(evs) == 0 {
		t.Fatal("trace-out captured nothing")
	}
	// Traffic ran, so some events must be tied to packets.
	var traced int
	for _, ev := range evs {
		if ev.Trace != 0 {
			traced++
		}
	}
	if traced == 0 {
		t.Error("no event carries a trace ID")
	}
}

func TestRunTracePacketPrintsJourney(t *testing.T) {
	// First run with a sink to discover a real trace ID...
	path := filepath.Join(t.TempDir(), "events.jsonl")
	o := opts()
	o.traceOut = path
	var out bytes.Buffer
	if err := run(&out, o); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := trace.ReadJSONL(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	var id trace.TraceID
	for _, ev := range evs {
		if ev.Trace != 0 {
			id = ev.Trace
			break
		}
	}
	if id == 0 {
		t.Fatal("no traced packet in the run")
	}
	// ...then re-run the same seed asking for that packet's journey.
	o = opts()
	o.tracePacket = id.String()
	out.Reset()
	if err := run(&out, o); err != nil {
		t.Fatal(err)
	}
	report := out.String()
	if !strings.Contains(report, "journey") || !strings.Contains(report, id.String()) {
		t.Errorf("report missing the packet journey:\n%s", report)
	}

	o.tracePacket = "not-hex"
	if err := run(&out, o); err == nil {
		t.Error("malformed trace ID: want error")
	}
}

func TestRunFaultPlanFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plan.json")
	plan := `{
		"name": "cli-test",
		"links": [{"from": 0, "to": 1, "symmetric": true, "kind": "bernoulli", "p": 0.3}],
		"corrupt": {"rate": 0.1}
	}`
	if err := os.WriteFile(path, []byte(plan), 0o644); err != nil {
		t.Fatal(err)
	}
	o := opts()
	o.faultsFile = path
	o.duration = 3600e9
	var out bytes.Buffer
	if err := run(&out, o); err != nil {
		t.Fatal(err)
	}
	report := out.String()
	if !strings.Contains(report, `fault plan "cli-test" armed`) {
		t.Error("report missing fault plan banner")
	}
	if !strings.Contains(report, "fault layer:") || !strings.Contains(report, "loss=") {
		t.Errorf("report missing fault-layer drop summary:\n%s", report)
	}

	// A broken plan file must fail loudly, not inject nothing.
	if err := os.WriteFile(path, []byte(`{"links": [{"from": 0, "to": 9, "kind": "block"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(&out, o); err == nil {
		t.Error("plan referencing a missing node: want error")
	}
}

func TestRunSecuredSmoke(t *testing.T) {
	o := opts()
	o.seckey = "2b7e151628aed2a6abf7158809cf4f3c"
	var out bytes.Buffer
	if err := run(&out, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "link-layer security: on") {
		t.Error("report missing the security banner")
	}

	o.seckey = "not-a-key"
	if err := run(&out, o); err == nil {
		t.Error("malformed -seckey: want error")
	}

	// Link security is a proactive-engine feature; the baselines must
	// refuse the key rather than silently run plaintext.
	o = opts()
	o.seckey = "2b7e151628aed2a6abf7158809cf4f3c"
	o.strategy, o.traffic, o.duration = "flooding", "none", 60e9
	if err := run(&out, o); err == nil {
		t.Error("-seckey with the flooding strategy: want error")
	}
}

func TestRunStrategySmoke(t *testing.T) {
	// ICN swaps the push traffic patterns for interest rounds and reports
	// the cache evidence.
	o := opts()
	o.topology, o.n, o.strategy, o.duration, o.interval = "grid", 6, "icn", 1800e9, 600e9
	var out bytes.Buffer
	if err := run(&out, o); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"forwarding strategy: icn", "interest rounds", "cache hits"} {
		if !strings.Contains(s, want) {
			t.Errorf("icn report missing %q:\n%s", want, s)
		}
	}

	// Slotted converges like the proactive engine and arms the health
	// monitor for its latency bound.
	o = opts()
	o.strategy, o.duration = "slotted", 1800e9
	out.Reset()
	if err := run(&out, o); err != nil {
		t.Fatal(err)
	}
	s = out.String()
	for _, want := range []string{"forwarding strategy: slotted", "mesh converged", "mesh health"} {
		if !strings.Contains(s, want) {
			t.Errorf("slotted report missing %q:\n%s", want, s)
		}
	}

	// Malformed values fail cleanly on both engine paths.
	o = opts()
	o.strategy = "bogus"
	if err := run(&out, o); err == nil || !strings.Contains(err.Error(), `unknown strategy "bogus"`) {
		t.Errorf("malformed -strategy: got %v, want unknown-strategy error", err)
	}
	o.shards = 2
	if err := run(&out, o); err == nil || !strings.Contains(err.Error(), `unknown strategy "bogus"`) {
		t.Errorf("malformed -strategy on city path: got %v, want unknown-strategy error", err)
	}
}

// TestRunCityStrategy drives the -shards path under a non-default
// strategy and checks the strategy reaches the city engine (a different
// digest than the proactive default proves it was not ignored).
func TestRunCityStrategy(t *testing.T) {
	digest := func(strategy string) string {
		var out bytes.Buffer
		o := opts()
		o.n, o.shards, o.duration, o.strategy = 200, 2, 300e9, strategy
		if err := run(&out, o); err != nil {
			t.Fatal(err)
		}
		s := out.String()
		i := strings.Index(s, "digest ")
		if i < 0 {
			t.Fatalf("city report missing digest:\n%s", s)
		}
		return strings.TrimSpace(s[i+len("digest "):])
	}
	if d, p := digest("icn"), digest("proactive"); d == p {
		t.Errorf("icn digest %s equals proactive digest — strategy ignored", d)
	}
}

// TestRunCitySmoke drives the -shards path: the city-scale engine runs
// serial and sharded on the same seed and must report the same digest.
func TestRunCitySmoke(t *testing.T) {
	digest := func(shards int) string {
		var out bytes.Buffer
		o := opts()
		o.n, o.shards, o.duration = 200, shards, 300e9
		if err := run(&out, o); err != nil {
			t.Fatal(err)
		}
		s := out.String()
		for _, want := range []string{"city mesh: 200 nodes", "PDR", "digest "} {
			if !strings.Contains(s, want) {
				t.Fatalf("city report missing %q:\n%s", want, s)
			}
		}
		i := strings.Index(s, "digest ")
		return strings.TrimSpace(s[i+len("digest "):])
	}
	serial := digest(0)
	if sharded := digest(2); sharded != serial {
		t.Errorf("sharded digest %s != serial %s", sharded, serial)
	}
}
