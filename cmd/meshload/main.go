// meshload is the ingest load harness: it drives a gateway fleet against
// an in-process sharded HTTP backend at memory speed and reports
// wall-clock ingest throughput plus the exactly-once ledger. Its job is
// to locate the batching/pipelining knee — sweep a knob and watch where
// readings/sec stops climbing — and to prove delivery stays exactly-once
// under handover and crash/restart while it climbs.
//
// Usage examples:
//
//	meshload                                   # one serial baseline run
//	meshload -shards 4 -pipeline 4 -gc 2ms     # the pipelined config
//	meshload -gateways 2 -overlap 0.2 -crash -spool /tmp/ml  # fleet+crash
//	meshload -sweep pipeline -values 1,2,4,8   # knee hunt over one knob
//	meshload -check                            # exit 1 unless exactly-once
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/gateway"
)

func main() {
	var cfg gateway.LoadConfig
	flag.IntVar(&cfg.Readings, "readings", 20000, "total distinct readings to offer")
	flag.IntVar(&cfg.Origins, "origins", 64, "distinct origin addresses (shard key population)")
	flag.IntVar(&cfg.Gateways, "gateways", 1, "fleet size")
	flag.IntVar(&cfg.Shards, "shards", 1, "backend shard count")
	flag.IntVar(&cfg.Pipeline, "pipeline", 1, "in-flight batches per backend shard")
	flag.DurationVar(&cfg.GroupCommit, "gc", 0, "WAL group-commit interval (0 = flush per record)")
	flag.StringVar(&cfg.SpoolDir, "spool", "", "directory for WAL spools (empty = memory-only)")
	flag.Float64Var(&cfg.Overlap, "overlap", 0, "fraction of readings offered to a second gateway")
	flag.BoolVar(&cfg.CrashRestart, "crash", false, "crash gateway 0 mid-run, hand over, restart from WAL")
	flag.DurationVar(&cfg.BackendLatency, "rtt", 10*time.Millisecond, "simulated backend round-trip latency")
	sweep := flag.String("sweep", "", "knob to sweep: batch | pipeline | shards | gateways")
	values := flag.String("values", "", "comma-separated sweep values")
	check := flag.Bool("check", false, "exit nonzero unless every run is exactly-once")
	flag.Parse()

	runs, err := plan(cfg, *sweep, *values)
	if err != nil {
		fmt.Fprintln(os.Stderr, "meshload:", err)
		os.Exit(2)
	}
	ok := true
	for _, rc := range runs {
		rep, err := gateway.RunLoad(rc)
		if err != nil {
			fmt.Fprintln(os.Stderr, "meshload:", err)
			os.Exit(2)
		}
		fmt.Println(rep)
		if !rep.ExactlyOnce() {
			ok = false
		}
	}
	if *check && !ok {
		fmt.Fprintln(os.Stderr, "meshload: delivery was not exactly-once")
		os.Exit(1)
	}
}

// plan expands a sweep directive into the run list (or the single run).
func plan(base gateway.LoadConfig, sweep, values string) ([]gateway.LoadConfig, error) {
	if sweep == "" {
		return []gateway.LoadConfig{base}, nil
	}
	if values == "" {
		return nil, fmt.Errorf("-sweep needs -values")
	}
	var runs []gateway.LoadConfig
	for _, f := range strings.Split(values, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("sweep value %q: %w", f, err)
		}
		rc := base
		switch sweep {
		case "batch":
			rc.BatchSize = v
		case "pipeline":
			rc.Pipeline = v
		case "shards":
			rc.Shards = v
		case "gateways":
			rc.Gateways = v
		default:
			return nil, fmt.Errorf("unknown sweep knob %q", sweep)
		}
		runs = append(runs, rc)
	}
	return runs, nil
}
