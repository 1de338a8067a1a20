// packetdump decodes LoRaMesher frames captured as hex — from a logic
// analyzer, an SDR, or the simulator's traces — into human-readable form,
// including HELLO routing-table payloads, ICN interest/named-data
// payloads, TDMA slot beacons, and SF7/BW125 airtime.
//
//	$ packetdump ffff00010412340103
//	HELLO 0001->FFFF len=9
//	  airtime SF7/BW125: 41ms
//	  routing entries (1):
//	    1234 metric 1 default
//
// Frames can also be piped on stdin, one hex string per line.
//
// Secured frames (link-layer security on) dump their header in the
// clear but keep the payload opaque until -key supplies the network key,
// which adds per-frame authentication and replay verdicts:
//
//	$ packetdump -key 2b7e151628aed2a6abf7158809cf4f3c 0002800100...9af3
//	DATA 0001->0002 via 0002 sec(ctr=7) len=29
//	  security: auth ok, counter 7 fresh
//	  payload (10 B): "hello mesh"
//
// With -events it instead reads a JSONL trace stream (as written by
// meshsim -trace-out), pretty-printing each event with optional filters:
//
//	$ packetdump -events events.jsonl -trace 9c4f21aa03b7e5d1
//	$ meshsim -trace-out - | packetdump -events - -kind drop -node 0003
//
// With -spans it reconstructs the causal hop tree for a packet from the
// stream's span events (meshsim -spans), showing per-hop, per-segment
// latency and the queue-wait/airtime/end-to-end breakdown; -chrome
// exports the same records as Chrome trace_event JSON for
// chrome://tracing or Perfetto:
//
//	$ packetdump -events events.jsonl -spans 9c4f21aa03b7e5d1
//	$ packetdump -events events.jsonl -spans all
//	$ packetdump -events events.jsonl -chrome timeline.json
package main

import (
	"bufio"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/loraphy"
	"repro/internal/meshsec"
	"repro/internal/packet"
	"repro/internal/span"
	"repro/internal/trace"
)

func main() {
	events := flag.String("events", "", "read a JSONL trace stream from this file (\"-\" for stdin) instead of hex frames")
	traceID := flag.String("trace", "", "with -events: only events for this trace ID (the packet's journey)")
	kind := flag.String("kind", "", "with -events: only events of this kind (tx, rx, drop, route, app, stream, failure, interest, data, slot-beacon)")
	node := flag.String("node", "", "with -events: only events from this node address")
	spans := flag.String("spans", "", "with -events: render the causal hop span tree for this trace ID (\"all\" for every trace in the stream)")
	chrome := flag.String("chrome", "", "with -events: export span records as Chrome trace_event JSON to this file (\"-\" for stdout)")
	key := flag.String("key", "", "network key as 32 hex digits: authenticate and decrypt secured frames, with replay verdicts across the dump")
	flag.Parse()

	var link *meshsec.Link
	if *key != "" {
		k, err := meshsec.ParseKey(*key)
		if err != nil {
			fmt.Fprintf(os.Stderr, "packetdump: %v\n", err)
			os.Exit(1)
		}
		// The link's own address never matters offline: verification keys
		// off each frame's origin, and the shared replay windows give
		// per-origin verdicts across the whole dump.
		link = meshsec.NewLink(k, 0)
	}

	if *events != "" {
		r := os.Stdin
		if *events != "-" {
			f, err := os.Open(*events)
			if err != nil {
				fmt.Fprintf(os.Stderr, "packetdump: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			r = f
		}
		var err error
		if *spans != "" || *chrome != "" {
			err = dumpSpans(os.Stdout, r, *spans, *chrome)
		} else {
			err = dumpEvents(os.Stdout, r, *traceID, *kind, *node)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "packetdump: %v\n", err)
			os.Exit(1)
		}
		return
	}

	// Airtime is annotated at the simulator's default PHY (SF7/BW125).
	params := loraphy.DefaultParams()
	inputs := flag.Args()
	if len(inputs) == 0 {
		scanner := bufio.NewScanner(os.Stdin)
		for scanner.Scan() {
			if line := strings.TrimSpace(scanner.Text()); line != "" {
				inputs = append(inputs, line)
			}
		}
	}
	if len(inputs) == 0 {
		fmt.Fprintln(os.Stderr, "packetdump: no frames given (args or stdin)")
		os.Exit(1)
	}

	failed := 0
	for _, in := range inputs {
		if err := dump(os.Stdout, in, params, link); err != nil {
			fmt.Fprintf(os.Stderr, "packetdump: %q: %v\n", in, err)
			failed++
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// dumpEvents pretty-prints a JSONL trace stream, keeping only events that
// pass every given filter (empty filters pass everything).
func dumpEvents(w io.Writer, r io.Reader, traceID, kind, node string) error {
	var wantID trace.TraceID
	if traceID != "" {
		id, err := trace.ParseTraceID(traceID)
		if err != nil {
			return err
		}
		wantID = id
	}
	evs, err := trace.ReadJSONL(r)
	if err != nil {
		return err
	}
	shown := 0
	for _, ev := range evs {
		if wantID != 0 && ev.Trace != wantID {
			continue
		}
		if kind != "" && string(ev.Kind) != kind {
			continue
		}
		if node != "" && ev.Node != node {
			continue
		}
		fmt.Fprintln(w, ev)
		shown++
	}
	fmt.Fprintf(w, "%d of %d events\n", shown, len(evs))
	return nil
}

// dumpSpans reconstructs hop span trees from a JSONL trace stream's span
// events. With a trace ID (or "all") it renders the indented causal tree
// per trace; with a chrome output path it instead exports every span
// record as Chrome trace_event JSON.
func dumpSpans(w io.Writer, r io.Reader, traceID, chromeOut string) error {
	evs, err := trace.ReadJSONL(r)
	if err != nil {
		return err
	}
	recs := span.FromEvents(evs)
	if len(recs) == 0 {
		return fmt.Errorf("no span events in stream (capture with meshsim -spans)")
	}
	if chromeOut != "" {
		out := w
		if chromeOut != "-" {
			f, err := os.Create(chromeOut)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		if err := span.WriteChromeTrace(out, recs); err != nil {
			return err
		}
		if chromeOut != "-" {
			fmt.Fprintf(w, "wrote %d span records for %d traces to %s\n",
				len(recs), len(span.TraceIDs(recs)), chromeOut)
		}
		return nil
	}
	ids := span.TraceIDs(recs)
	if traceID != "all" {
		id, err := trace.ParseTraceID(traceID)
		if err != nil {
			return err
		}
		ids = []trace.TraceID{id}
	}
	for i, id := range ids {
		if i > 0 {
			fmt.Fprintln(w)
		}
		if err := span.WriteTree(w, id, recs); err != nil {
			return err
		}
	}
	return nil
}

// dump decodes one hex frame and writes its description. With a link it
// also judges secured frames as a node would, with Link.Open, whose
// replay state is shared across the dump: a capture containing a
// replayed frame, or a HELLO no newer than its origin's last, shows the
// REPLAY verdict on it; a fresh frame's payload is decrypted.
func dump(w io.Writer, hexFrame string, params loraphy.Params, link *meshsec.Link) error {
	clean := strings.Map(func(r rune) rune {
		if r == ' ' || r == ':' || r == '-' {
			return -1
		}
		return r
	}, hexFrame)
	frame, err := hex.DecodeString(clean)
	if err != nil {
		return fmt.Errorf("bad hex: %w", err)
	}
	p, err := packet.Unmarshal(frame)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, p)
	if air, err := params.Airtime(len(frame)); err == nil {
		fmt.Fprintf(w, "  airtime %v/%v: %v\n", params.SpreadingFactor, params.Bandwidth, air)
	}
	if p.Secured {
		switch {
		case link == nil:
			fmt.Fprintln(w, "  security: unauthenticated (no key; pass -key to verify)")
			return nil // the payload is ciphertext; nothing below can parse it
		default:
			// The engine's own verdict: Open authenticates first, so a
			// forged counter never touches the replay windows.
			switch err := link.Open(p); {
			case errors.Is(err, meshsec.ErrAuth):
				fmt.Fprintln(w, "  security: auth FAILED (wrong key or tampered frame)")
				return nil
			case errors.Is(err, meshsec.ErrReplay):
				fmt.Fprintf(w, "  security: auth ok, counter %d REPLAY (a node drops it: seen before, or a HELLO no newer than its origin's last)\n", p.Counter)
				return nil // Open leaves a rejected payload encrypted
			case err != nil:
				return err
			}
			fmt.Fprintf(w, "  security: auth ok, counter %d fresh\n", p.Counter)
		}
	}
	switch {
	case p.Type == packet.TypeHello:
		entries, err := packet.UnmarshalHello(p.Payload)
		if err != nil {
			return fmt.Errorf("hello payload: %w", err)
		}
		fmt.Fprintf(w, "  routing entries (%d):\n", len(entries))
		for _, e := range entries {
			fmt.Fprintf(w, "    %v metric %d %v\n", e.Addr, e.Metric, e.Role)
		}
	case p.Type == packet.TypeInterest:
		// The ICN engine's rule: a breadcrumb, then a 1..MaxNameLen name.
		b, name, err := packet.UnmarshalBreadcrumb(p.Payload)
		if err != nil {
			return fmt.Errorf("interest payload: %w", err)
		}
		if len(name) == 0 || len(name) > packet.MaxNameLen {
			return fmt.Errorf("interest payload: name of %d bytes, want 1..%d", len(name), packet.MaxNameLen)
		}
		fmt.Fprintf(w, "  interest %s nonce=%d hops=%d prev-hop=%v\n",
			previewPayload(name), b.ID, b.Hops, b.PrevHop)
	case p.Type == packet.TypeNamedData:
		d, err := packet.UnmarshalNamedData(p.Payload)
		if err != nil {
			return fmt.Errorf("named-data payload: %w", err)
		}
		fmt.Fprintf(w, "  data %s producer=%v hops=%d\n", previewPayload([]byte(d.Name)), d.Producer, d.Hops)
		fmt.Fprintf(w, "  content (%d B): %s\n", len(d.Content), previewPayload(d.Content))
	case p.Type == packet.TypeSlotBeacon:
		b, err := packet.UnmarshalSlotBeacon(p.Payload)
		if err != nil {
			return fmt.Errorf("slot-beacon payload: %w", err)
		}
		fmt.Fprintf(w, "  slot beacon: slot %d of %d, sender depth %d\n", b.Slot, b.Slots, b.Depth)
	case len(p.Payload) > 0:
		fmt.Fprintf(w, "  payload (%d B): %s\n", len(p.Payload), previewPayload(p.Payload))
	}
	return nil
}

// previewPayload renders small payloads as text when printable, hex
// otherwise.
func previewPayload(b []byte) string {
	printable := true
	for _, c := range b {
		if c < 0x20 || c > 0x7e {
			printable = false
			break
		}
	}
	const max = 48
	trunc := b
	suffix := ""
	if len(trunc) > max {
		trunc = trunc[:max]
		suffix = "..."
	}
	if printable {
		return fmt.Sprintf("%q%s", trunc, suffix)
	}
	return hex.EncodeToString(trunc) + suffix
}
