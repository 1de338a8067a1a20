// Package experiments regenerates every table and figure in the
// evaluation (see EXPERIMENTS.md's index): each experiment builds
// its workload on internal/netsim, runs it under the deterministic
// simulator, and renders the same rows/series the paper-scale evaluation
// reports. cmd/meshbench is the CLI front end; the repo root's
// TestAllExperimentsQuick compares each table with eval_output.txt under
// `go test`.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/netsim"
)

// Options tunes an experiment run.
type Options struct {
	// Seed drives all randomness; runs are reproducible per seed.
	Seed int64
}

// Result is one regenerated table/figure as rows of text cells.
type Result struct {
	ID     string // stamped by the registry (All)
	Title  string
	Header []string
	Rows   [][]string
	// Notes carries the interpretation the evaluation draws from the
	// numbers ("who wins, by what factor, where the crossover falls").
	Notes []string
}

// AddRow appends a row of stringified cells.
func (r *Result) AddRow(cells ...string) {
	r.Rows = append(r.Rows, cells)
}

// sweep evaluates row(i) for the n points of a sweep (see forEachPoint)
// and appends the rows in sweep order.
func (r *Result) sweep(n int, row func(i int) ([]string, error)) error {
	rows, err := forEachPoint(n, row)
	r.Rows = append(r.Rows, rows...)
	return err
}

// converged builds cfg's simulation and runs it until every node routes
// to every other (at once under the table-free strategies), looking every
// 10 s of virtual time for up to 4 h.
func converged(cfg netsim.Config) (*netsim.Sim, error) {
	sim, err := netsim.New(cfg)
	if err != nil {
		return nil, err
	}
	if _, ok := sim.TimeToConvergence(10*time.Second, 4*time.Hour); !ok {
		return nil, fmt.Errorf("no convergence in 4 h")
	}
	return sim, nil
}

// WriteTo renders the result as an aligned text table; a cell past the
// header's last column is written unpadded.
func (r *Result) WriteTo(w io.Writer) (int64, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			if i < len(widths) {
				fmt.Fprintf(&sb, "%-*s", widths[i], c)
			} else {
				sb.WriteString(c)
			}
		}
		sb.WriteByte('\n')
	}
	line(r.Header)
	for i, wd := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", wd))
	}
	sb.WriteByte('\n')
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// Spec registers one experiment.
type Spec struct {
	ID    string
	Title string
	Run   func(Options) (*Result, error)
}

// All returns every experiment and ablation in display order. Each Run
// stamps its Result with the Spec's ID, the one place an ID is written.
func All() []Spec {
	specs := []Spec{
		{"E1", "Mesh formation on the demo topology", E1MeshFormation},
		{"E2", "Packet formats and header overhead", E2PacketFormats},
		{"E3", "Routing convergence time vs network size", E3Convergence},
		{"E4", "Routing control overhead (HELLO airtime)", E4ControlOverhead},
		{"E5", "Multi-hop delivery: datagrams vs reliable transport", E5Delivery},
		{"E6", "Large-payload transfer time vs size and hops", E6LargePayload},
		{"E7", "LoRaMesher vs controlled flooding", E7Baseline},
		{"E8", "EU868 duty-cycle compliance over 24 h", E8DutyCycle},
		{"E9", "Scalability with node density", E9Density},
		{"E10", "Route repair after router failure", E10Repair},
		{"E11", "Gateway uplink under backend outage and partition", E11GatewayUplink},
		{"E12", "Chaos matrix: delivery under injected faults", E12ChaosMatrix},
		{"E13", "Link-layer security overhead (on vs off)", E13Security},
		{"E14", "Observer overhead: spans and health monitor (on vs off)", E14Observer},
		{"E15", "City mesh: sharded-simulator scaling curve", E15CityMesh},
		{"E16", "Self-healing MTTR: controller off vs on", E16SelfHealing},
		{"E17", "Ingest at scale: sharded, pipelined gateway fleet", E17Ingest},
		{"A1", "Ablation: route poisoning vs expiry-only", A1Poisoning},
		{"A2", "Ablation: HELLO period trade-off", A2HelloPeriod},
		{"A3", "Ablation: ARQ window (stop-and-wait vs go-back-N)", A3ARQWindow},
		{"A4", "Ablation: spreading-factor sweep", A4SpreadingFactor},
		{"A5", "Ablation: listen-before-talk (CAD) under contention", A5CAD},
		{"X1", "Extension: energy and battery-life audit", X1Energy},
		{"X2", "Extension: duty-cycled sleep for end devices", X2Sleep},
		{"X3", "Extension: node mobility (random waypoint)", X3Mobility},
		{"X4", "Extension: link-quality (SNR) routing metric", X4SNRRouting},
		{"X5", "Extension: network partition and merge", X5Partition},
		{"X6", "Extension: proactive vs reactive vs flooding", X6Reactive},
		{"X7", "Extension: forwarding-strategy shoot-out (proactive/reactive/ICN/slotted)", X7Strategies},
	}
	for i := range specs {
		id, run := specs[i].ID, specs[i].Run
		specs[i].Run = func(opt Options) (*Result, error) {
			res, err := run(opt)
			if res != nil {
				res.ID = id
			}
			return res, err
		}
	}
	return specs
}

// Find returns the spec with the given id (case-insensitive).
func Find(id string) (Spec, bool) {
	for _, s := range All() {
		if strings.EqualFold(s.ID, id) {
			return s, true
		}
	}
	return Spec{}, false
}

// Formatting helpers shared by the experiment implementations.

func fmtDur(d time.Duration) string {
	switch {
	case d >= 48*time.Hour:
		return fmt.Sprintf("%.1fd", d.Hours()/24)
	case d >= 2*time.Hour:
		return fmt.Sprintf("%.1fh", d.Hours())
	case d >= time.Minute:
		return fmt.Sprintf("%.1fmin", d.Minutes())
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	default:
		return fmt.Sprintf("%dms", d.Milliseconds())
	}
}

func fmtPct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }

func fmtF(f float64, dec int) string { return fmt.Sprintf("%.*f", dec, f) }

// median returns the middle of a small sample.
func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}
