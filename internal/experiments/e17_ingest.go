package experiments

import (
	"fmt"
	"os"
	"time"

	"repro/internal/gateway"
)

// E17Ingest measures the ingest path's throughput ladder on the load
// harness (internal/gateway.RunLoad): the same reading population runs
// through one configuration per rung — serial baseline, WAL group
// commit, pipelined uplink, sharded backend, the full combination, and
// finally a two-gateway fleet with handover overlap and a mid-stream
// crash/restart. Every rung must stay exactly-once (asserted: zero lost,
// zero double-accepted readings); the crash rung additionally proves the
// group-commit window lost by kill -9 is recovered through fleet
// handover plus origin-sharded backend dedup.
//
// The backend answers after a simulated WAN round trip, so the ladder
// shows what each knob actually buys: group commit amortizes WAL
// flushes, sharding multiplies independent lanes, pipelining overlaps
// round trips within a lane. Wall-clock columns (readings/s, speedup)
// are machine-specific; the delivery ledger reproduces per seed.
//
// The run is serial by design (no sweep pool): rungs
// measure wall time, which concurrent workers would distort.
func E17Ingest(opt Options) (*Result, error) {
	readings, rtt := 20000, 10*time.Millisecond
	if opt.Quick {
		readings, rtt = 6000, 5*time.Millisecond
	}
	spool, err := os.MkdirTemp("", "e17-ingest-")
	if err != nil {
		return nil, fmt.Errorf("E17: %w", err)
	}
	defer os.RemoveAll(spool)

	base := gateway.LoadConfig{
		Readings: readings, Origins: 64, BatchSize: 64,
		BackendLatency: rtt, Seed: opt.Seed,
	}
	type rung struct {
		label string
		mod   func(*gateway.LoadConfig)
	}
	gc := 2 * time.Millisecond
	rungs := []rung{
		{"serial", func(c *gateway.LoadConfig) {}},
		{"group-commit", func(c *gateway.LoadConfig) { c.GroupCommit = gc }},
		{"pipelined w4", func(c *gateway.LoadConfig) { c.Pipeline = 4 }},
		{"sharded 4", func(c *gateway.LoadConfig) { c.Shards = 4 }},
		{"sharded+pipelined", func(c *gateway.LoadConfig) {
			c.Shards, c.Pipeline, c.GroupCommit = 4, 4, gc
		}},
		{"fleet 2gw overlap", func(c *gateway.LoadConfig) {
			c.Shards, c.Pipeline, c.GroupCommit = 4, 4, gc
			c.Gateways, c.Overlap = 2, 0.2
		}},
		{"fleet+crash/restart", func(c *gateway.LoadConfig) {
			c.Shards, c.Pipeline, c.GroupCommit = 4, 4, gc
			c.Gateways, c.Overlap, c.CrashRestart = 2, 0.2, true
		}},
	}

	res := &Result{
		Title:  "ingest at scale: WAL group commit, sharded dedup, pipelined uplink, fleet handover",
		Header: []string{"config", "gw", "shards", "pipeline", "gc", "readings/s", "speedup", "distinct", "dupes", "double-acc", "lost"},
	}
	var serialRate float64
	for _, r := range rungs {
		cfg := base
		r.mod(&cfg)
		dir, err := os.MkdirTemp(spool, "rung-")
		if err != nil {
			return nil, fmt.Errorf("E17 (%s): %w", r.label, err)
		}
		cfg.SpoolDir = dir
		rep, err := gateway.RunLoad(cfg)
		if err != nil {
			return nil, fmt.Errorf("E17 (%s): %w", r.label, err)
		}
		if !rep.ExactlyOnce() {
			return nil, fmt.Errorf("E17 (%s): delivery not exactly-once: %s", r.label, rep)
		}
		speedup := "1.00x"
		if r.label == "serial" {
			serialRate = rep.ReadingsPerSec
		} else if serialRate > 0 {
			speedup = fmtF(rep.ReadingsPerSec/serialRate, 2) + "x"
		}
		gcCell := "off"
		if rep.GroupCommit > 0 {
			gcCell = rep.GroupCommit.String()
		}
		res.AddRow(
			r.label,
			fmt.Sprintf("%d", rep.Gateways),
			fmt.Sprintf("%d", rep.Shards),
			fmt.Sprintf("%d", rep.Pipeline),
			gcCell,
			fmt.Sprintf("%.0f", rep.ReadingsPerSec),
			speedup,
			fmt.Sprintf("%d", rep.Distinct),
			fmt.Sprintf("%d", rep.Duplicates),
			fmt.Sprintf("%d", rep.DoubleAccepted),
			fmt.Sprintf("%d", rep.Lost),
		)
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("every rung delivered %d/%d readings with zero double-accepts (asserted): sharded dedup keeps exactly-once through overlap and crash/restart", readings, readings),
		fmt.Sprintf("backend answers after a %v simulated round trip: the knobs amortize that latency — sharding multiplies lanes, pipelining overlaps round trips within a lane, group commit batches WAL flushes", rtt),
		"dupes are redundant uploads the backend suppressed (handover/crash re-delivery working as designed), not correctness violations",
		"wall-clock columns (readings/s, speedup) are machine-specific; the delivery ledger reproduces per seed")
	return res, nil
}
