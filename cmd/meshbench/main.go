// meshbench regenerates the evaluation's tables and figures. Each
// experiment (E1–E11) and ablation (A1–A5) maps to one table/figure in
// DESIGN.md's experiment index; EXPERIMENTS.md records the expected
// shapes.
//
// Usage:
//
//	meshbench              # run every experiment
//	meshbench -exp E5,E7   # run selected experiments
//	meshbench -quick       # E15, E17 and X7 (a minute at published size) at test size
//	meshbench -seed 7      # different random seed
//	meshbench -cpuprofile meshbench.prof
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/meshsec"
)

// options collects everything a run needs; flags map onto it 1:1.
type options struct {
	exp        string
	quick      bool
	seed       int64
	list       bool
	cpuprofile string
	// seckey, 32 hex digits, replaces the built-in network key in the
	// security-aware experiments (E13).
	seckey string
}

func main() {
	var o options
	flag.StringVar(&o.exp, "exp", "", "comma-separated experiment ids (default: all)")
	flag.BoolVar(&o.quick, "quick", false, "run E15, E17 and X7 at test size (every other experiment has one size)")
	flag.Int64Var(&o.seed, "seed", 1, "random seed")
	flag.BoolVar(&o.list, "list", false, "list experiment ids and exit")
	flag.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&o.seckey, "seckey", "", "network key as 32 hex digits for the security experiments (default: built-in key)")
	flag.Parse()
	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "meshbench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "meshbench: %v\n", err)
			os.Exit(1)
		}
	}
	err := run(os.Stdout, os.Stderr, o)
	if o.cpuprofile != "" {
		// Flushed explicitly: os.Exit below would skip a deferred stop.
		pprof.StopCPUProfile()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "meshbench: %v\n", err)
		os.Exit(1)
	}
}

func run(w, ew io.Writer, o options) error {
	if o.list {
		for _, s := range experiments.All() {
			fmt.Fprintf(w, "%-4s %s\n", s.ID, s.Title)
		}
		return nil
	}

	var specs []experiments.Spec
	if o.exp == "" {
		specs = experiments.All()
	} else {
		for _, id := range strings.Split(o.exp, ",") {
			s, ok := experiments.Find(strings.TrimSpace(id))
			if !ok {
				return fmt.Errorf("unknown experiment %q (try -list)", id)
			}
			specs = append(specs, s)
		}
	}

	opt := experiments.Options{Seed: o.seed, Quick: o.quick}
	if o.seckey != "" {
		key, err := meshsec.ParseKey(o.seckey)
		if err != nil {
			return err
		}
		opt.SecKey = &key
	}
	failed := 0
	for _, s := range specs {
		start := time.Now()
		res, err := s.Run(opt)
		if err != nil {
			fmt.Fprintf(ew, "meshbench: %s failed: %v\n", s.ID, err)
			failed++
			continue
		}
		if _, err := res.WriteTo(w); err != nil {
			fmt.Fprintf(ew, "meshbench: writing %s: %v\n", s.ID, err)
			failed++
			continue
		}
		fmt.Fprintf(w, "(%s completed in %v wall time)\n\n", s.ID, time.Since(start).Round(time.Millisecond))
	}
	if failed > 0 {
		return fmt.Errorf("%d experiment(s) failed", failed)
	}
	return nil
}
