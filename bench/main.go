// Command bench is the repository's one benchmark: four workloads that
// together cover the whole path a reading takes (sensor node, mesh, sink,
// gateway spool and WAL, uplink, backend accept), each reporting the same
// end-to-end metrics, plus a traced run that attributes the cost to the
// repository's packages by timing calls into their public functions from
// outside. BENCHMARK.json at the repository root is its contract and
// README.md in this directory explains the choices.
//
// The driver runs one workload in one mode and reads the last line:
//
//	bash bench/run.sh --workload mesh_secure --seed 1 --seconds 10 --trace 0
//
// Without --workload every workload runs (untraced, then traced when
// --trace is given) and every metric is printed by name with its unit;
// -selfcheck runs the untraced set twice and compares the two against the
// regression bounds. Any failed correctness check exits non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

// sizes holds every count a workload is built from. --seconds scales
// virtual durations and phase lengths, never these; only the smoke test
// shrinks them.
type sizes struct {
	cityNodes      int // stations in city_telemetry and city_icn
	cityCheckNodes int // stations in the serial-vs-sharded digest check
	meshSide       int // mesh_secure runs on a meshSide x meshSide grid
	ingestRate     int // steady-phase readings per second (open loop)
	ingestOrigins  int // distinct origin addresses (the shard key population)
	setups         int // constructions timed for setup_s (median reported)
	// layerBudget is the wall time one layer replay may spend.
	layerBudget time.Duration
}

var fullSizes = sizes{
	cityNodes:      10000,
	cityCheckNodes: 1500,
	meshSide:       8,
	ingestRate:     10000,
	ingestOrigins:  512,
	setups:         9,
	layerBudget:    60 * time.Millisecond,
}

// options is one invocation's configuration.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	selfcheck bool
	outDir    string // trace files and the ingest WAL live here
	sz        sizes
}

// report is what one run of one workload produced.
type report struct {
	workload string
	e2e      map[string]float64
	layer    map[string]float64 // nil for an untraced run
	// attempted/failed: correctness checks run/violated on the sims,
	// distinct readings offered/mishandled on ingest_outage.
	attempted, failed int
	failures          []string
	facts             []string // counts and digests for the human reader
}

func newReport(workload string) *report {
	return &report{workload: workload, e2e: make(map[string]float64)}
}

// check counts one correctness check and records a violation.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) fact(format string, args ...any) {
	r.facts = append(r.facts, fmt.Sprintf(format, args...))
}

// runners maps a workload name to its implementation.
var runners = map[string]func(options) (*report, error){
	wCityTelemetry: func(o options) (*report, error) { return runCity(o, wCityTelemetry, "") },
	wCityICN:       func(o options) (*report, error) { return runCity(o, wCityICN, "icn") },
	wMeshSecure:    runMesh,
	wIngestOutage:  runIngest,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args and executes; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	o := options{outDir: "bench/out", sz: fullSizes}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run (default: all of them)")
	fs.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds a run is sized for on the reference box")
	fs.BoolVar(&o.trace, "trace", false, "run traced and report per-layer metrics (--trace 1 or bare -trace)")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "run the end-to-end set twice and compare against the bounds")
	if err := fs.Parse(normalizeTrace(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 || o.seconds <= 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %v or non-positive -seconds\n", fs.Args())
		return 2
	}
	fmt.Fprintf(stdout, "# bench seed=%d seconds=%g trace=%v GOMAXPROCS=%d NumCPU=%d %s\n",
		o.seed, o.seconds, o.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())

	switch {
	case o.selfcheck:
		return selfcheck(o, stdout, stderr)
	case o.workload != "":
		fn, ok := runners[o.workload]
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
			return 2
		}
		rep, err := fn(o)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", o.workload, err)
			return 1
		}
		return printReport(rep, stdout, stderr)
	}
	// Every workload: untraced first — those runs produce the end-to-end
	// numbers — then traced, never instead.
	code := 0
	for _, traced := range []bool{false, true} {
		if traced && !o.trace {
			break
		}
		for _, w := range workloads {
			ro := o
			ro.workload, ro.trace = w.Name, traced
			rep, err := runners[w.Name](ro)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.Name, err)
				return 1
			}
			if c := printReport(rep, stdout, stderr); c != 0 {
				code = c
			}
		}
	}
	return code
}

// normalizeTrace lets -trace be given bare (the human form) or with a
// separate 0/1 value (the driver's form): the flag package accepts a
// boolean's value only as -trace=v.
func normalizeTrace(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		if a := args[i]; a == "-trace" || a == "--trace" {
			v := "1"
			if i+1 < len(args) {
				switch args[i+1] {
				case "0", "1", "true", "false":
					v = args[i+1]
					i++
				}
			}
			out = append(out, "-trace="+v)
			continue
		}
		out = append(out, args[i])
	}
	return out
}

// result is the driver's last-line object.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printReport prints every metric by name with its unit, then the result
// object as the last line: end-to-end metrics for an untraced run,
// per-layer metrics for a traced one. It returns the exit code.
func printReport(rep *report, stdout, stderr io.Writer) int {
	for _, f := range rep.facts {
		fmt.Fprintf(stdout, "# %s %s\n", rep.workload, f)
	}
	specs, values := endToEnd, rep.e2e
	for _, m := range endToEnd {
		fmt.Fprintf(stdout, "%-15s %-36s %.6g %s\n", rep.workload, m.Name, rep.e2e[m.Name], m.Unit)
	}
	if rep.layer != nil {
		specs, values = perLayer, rep.layer
		for _, m := range perLayer {
			fmt.Fprintf(stdout, "%-15s %-36s %.6g %s\n", rep.workload, m.Name, rep.layer[m.Name], m.Unit)
		}
	}
	res := result{Metrics: make(map[string]metricValue)}
	for _, m := range specs {
		v, ok := values[m.Name]
		finite := ok && !math.IsNaN(v) && !math.IsInf(v, 0)
		if !finite || (rep.layer == nil && v == 0) {
			// Every workload measures every end-to-end metric, so a
			// missing or zero one is a defect; a per-layer metric may
			// be 0 (the layer did no work) but never missing or NaN.
			rep.failed++
			rep.failures = append(rep.failures, fmt.Sprintf("%s = %v, want a finite measurement", m.Name, v))
		}
		res.Metrics[m.Name] = metricValue{v, m.Unit}
	}
	res.Attempted, res.Failed = rep.attempted, rep.failed
	res.Correct = rep.failed == 0
	for _, f := range rep.failures {
		fmt.Fprintf(stderr, "bench: %s: CHECK FAILED: %s\n", rep.workload, f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", rep.workload, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// simulated reports whether a metric is simulated time or a simulated
// count on this workload: those repeat exactly per (workload, seed). Host
// metrics repeat within the machine's noise.
func simulated(workload, metric string) bool {
	if workload == wIngestOutage {
		return metric == "pdr"
	}
	switch metric {
	case "pdr", "delivery_p75_s", "airtime_s_per_delivery":
		return true
	}
	return false
}

// selfcheck runs the untraced end-to-end set twice back to back and prints,
// per workload and metric, the two values, how much worse the second is
// than the first, and the bound. Simulated metrics must match to the last
// digit; a host metric whose second run is worse than its bound fails.
func selfcheck(o options, stdout, stderr io.Writer) int {
	o.trace = false
	var runs [2]map[string]*report
	for i := range runs {
		runs[i] = make(map[string]*report)
		for _, w := range workloads {
			ro := o
			ro.workload = w.Name
			rep, err := runners[w.Name](ro)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.Name, err)
				return 1
			}
			if rep.failed > 0 {
				printReport(rep, io.Discard, stderr)
				return 1
			}
			runs[i][w.Name] = rep
		}
	}
	code := 0
	fmt.Fprintf(stdout, "%-15s %-24s %14s %14s %9s %7s\n", "workload", "metric", "run 1", "run 2", "worse by", "bound")
	for _, w := range workloads {
		for _, m := range endToEnd {
			a, b := runs[0][w.Name].e2e[m.Name], runs[1][w.Name].e2e[m.Name]
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = (a - b) / a
			}
			verdict := "ok"
			switch {
			case simulated(w.Name, m.Name) && a != b:
				verdict, code = "FAIL: simulated metric moved", 1
			case worse > m.Bound:
				verdict, code = "FAIL: beyond bound", 1
			case simulated(w.Name, m.Name):
				verdict = "ok (exact)"
			}
			fmt.Fprintf(stdout, "%-15s %-24s %14.6g %14.6g %+8.1f%% %6.0f%%  %s\n",
				w.Name, m.Name, a, b, 100*worse, 100*m.Bound, verdict)
		}
	}
	return code
}
