package experiments

import (
	"fmt"
	"os"
	"time"

	"repro/internal/gateway"
)

// E17Ingest runs the ingest path's configuration ladder on the load
// harness (internal/gateway.RunLoad): the same reading population runs
// through one configuration per rung — serial baseline, WAL group
// commit, pipelined uplink, sharded backend, the full combination, and
// finally a two-gateway fleet with handover overlap and a mid-stream
// crash/restart. The table is the delivery ledger: every rung must stay
// exactly-once (asserted: zero lost, zero double-accepted readings); the
// crash rung additionally proves the group-commit window lost by kill -9
// is recovered through fleet handover plus origin-sharded backend dedup.
// Throughput is wall clock and no cell here: meshload prints one rung's
// readings/s, and bench/'s ingest workload times the gateway path.
func E17Ingest(opt Options) (*Result, error) {
	const readings = 6000
	spool, err := os.MkdirTemp("", "e17-ingest-")
	if err != nil {
		return nil, fmt.Errorf("E17: %w", err)
	}
	defer os.RemoveAll(spool)

	base := gateway.LoadConfig{
		Readings: readings, Origins: 64, BatchSize: 64,
		BackendLatency: 5 * time.Millisecond, Seed: opt.Seed,
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
		Header: []string{"config", "gw", "shards", "pipeline", "gc", "distinct", "double-acc", "lost"},
	}
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
			fmt.Sprintf("%d", rep.Distinct),
			fmt.Sprintf("%d", rep.DoubleAccepted),
			fmt.Sprintf("%d", rep.Lost),
		)
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("every rung delivered %d/%d readings with zero double-accepts (asserted): sharded dedup keeps exactly-once through overlap and crash/restart", readings, readings))
	return res, nil
}
