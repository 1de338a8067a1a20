package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// toySizes shrinks every count so all four workloads and their traced runs
// finish in a few seconds; the contract's sizes are fullSizes.
var toySizes = sizes{
	cityNodes:      600,
	cityCheckNodes: 200,
	meshSide:       4,
	ingestRate:     2000,
	ingestOrigins:  32,
	setups:         2,
	layerBudget:    time.Millisecond,
}

// toySeconds gives each toy workload enough virtual time to deliver.
var toySeconds = map[string]float64{
	wCityTelemetry: 2, wCityICN: 3, wMeshSecure: 1, wIngestOutage: 0.5,
}

func toyRun(t *testing.T, workload string, seed int64, traced bool) *report {
	t.Helper()
	o := options{workload: workload, seed: seed, seconds: toySeconds[workload], trace: traced, outDir: t.TempDir(), sz: toySizes}
	rep, err := runners[workload](o)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if rep.failed != 0 || rep.attempted == 0 {
		t.Fatalf("%s: %d of %d checks failed: %v", workload, rep.failed, rep.attempted, rep.failures)
	}
	if traced {
		checkTraceFile(t, filepath.Join(o.outDir, "trace-"+workload+".jsonl"), workload)
	}
	return rep
}

// checkTraceFile asserts the span file parses, names its workload, and
// links every span to an earlier parent.
func checkTraceFile(t *testing.T, path, workload string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("traced run wrote no span file: %v", err)
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s struct {
			ID, Parent     int
			Workload, Name string
			StartNs        int64 `json:"start_ns"`
			EndNs          int64 `json:"end_ns"`
		}
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s line %d: %v", path, n+1, err)
		}
		if s.ID != n || s.Parent >= s.ID || s.Workload != workload || s.Name == "" || s.EndNs < s.StartNs {
			t.Fatalf("%s line %d: malformed span %+v", path, n+1, s)
		}
		n++
	}
	if n == 0 {
		t.Fatalf("%s is empty", path)
	}
}

// TestWorkloadsEmitEveryMetric runs every workload untraced and traced at
// toy scale and asserts the printed result carries each metric named in
// BENCHMARK.json exactly once, finite, with the declared unit.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rep := toyRun(t, w.Name, 1, traced)
			var out, errs bytes.Buffer
			if code := printReport(rep, &out, &errs); code != 0 {
				t.Fatalf("%s traced=%v: exit %d: %s", w.Name, traced, code, errs.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result object: %v", w.Name, err)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(want) {
				t.Fatalf("%s traced=%v: result %+v, want %d metrics", w.Name, traced, res, len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v), want finite in %s", w.Name, traced, m.Name, got, ok, m.Unit)
				}
				if !traced && got.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, m.Name)
				}
				if c := strings.Count(out.String(), " "+m.Name+" "); c != 1 {
					t.Errorf("%s traced=%v: metric %s printed %d times", w.Name, traced, m.Name, c)
				}
			}
			if traced && res.Metrics["bench.trace_overhead_ratio"].Value <= 0 {
				t.Errorf("%s: no trace overhead reported", w.Name)
			}
		}
	}
}

// TestSeedReachesEveryGenerator: another seed gives other simulated
// results and the same metric set with passing checks; the same seed gives
// the same simulated results to the last digit.
func TestSeedReachesEveryGenerator(t *testing.T) {
	for _, w := range []string{wCityTelemetry, wCityICN, wMeshSecure} {
		a, again, b := toyRun(t, w, 1, false), toyRun(t, w, 1, false), toyRun(t, w, 2, false)
		moved := false
		for _, m := range endToEnd {
			if !simulated(w, m.Name) {
				continue
			}
			if a.e2e[m.Name] != again.e2e[m.Name] {
				t.Errorf("%s: %s differs between two runs of seed 1: %v, %v", w, m.Name, a.e2e[m.Name], again.e2e[m.Name])
			}
			if a.e2e[m.Name] != b.e2e[m.Name] {
				moved = true
			}
		}
		if !moved || len(a.e2e) != len(b.e2e) {
			t.Errorf("%s: seed 2 left every simulated metric unchanged, or changed the metric set", w)
		}
	}
}

// TestSpecMatchesBenchmarkJSON keeps BENCHMARK.json and spec.go identical.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Workloads, workloads) {
		t.Errorf("workloads differ:\n json %+v\n spec %+v", file.Workloads, workloads)
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n spec %+v", file.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n spec %+v", file.PerLayer, perLayer)
	}
	if !reflect.DeepEqual(file.Paths, []string{"bench"}) || len(file.Command) == 0 || file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("command %v paths %v run_seconds %d", file.Command, file.Paths, file.RunSeconds)
	}
	for _, w := range workloads {
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// TestCommandLine drives the driver's argument form end to end.
func TestCommandLine(t *testing.T) {
	dir := t.TempDir()
	if err := os.Chdir(dir); err != nil { // trace files go to ./bench/out
		t.Fatal(err)
	}
	var out, errs bytes.Buffer
	args := []string{"--workload", wMeshSecure, "--seed", "3", "--seconds", "0.25", "--trace", "1"}
	if code := run(args, &out, &errs); code != 0 {
		t.Fatalf("exit %d: %s", code, errs.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "bench", "out", "trace-"+wMeshSecure+".jsonl")); err != nil {
		t.Errorf("no span file: %v", err)
	}
	if !strings.Contains(out.String(), "GOMAXPROCS=") {
		t.Errorf("GOMAXPROCS not recorded in the output")
	}
	for _, bad := range [][]string{{"--workload", "nope"}, {"--seconds", "0"}, {"stray"}} {
		if code := run(bad, &out, &errs); code == 0 {
			t.Errorf("args %v: exit 0, want a failure", bad)
		}
	}
	got := normalizeTrace([]string{"-trace", "--seed", "2", "--trace", "0"})
	if want := []string{"-trace=1", "--seed", "2", "-trace=0"}; !reflect.DeepEqual(got, want) {
		t.Errorf("normalizeTrace = %v, want %v", got, want)
	}
}

// TestFailedCheckFailsTheRun: a violated check reaches the exit code.
func TestFailedCheckFailsTheRun(t *testing.T) {
	rep := newReport(wMeshSecure)
	for _, m := range endToEnd {
		rep.e2e[m.Name] = 1
	}
	rep.check(false, "planted failure")
	var out, errs bytes.Buffer
	if code := printReport(rep, &out, &errs); code == 0 || !strings.Contains(errs.String(), "planted failure") {
		t.Errorf("exit %d, stderr %q: a failed check must fail the run", code, errs.String())
	}
	if !strings.Contains(out.String(), `"correct":false`) {
		t.Errorf("result line does not say correct=false: %s", out.String())
	}
}

// TestSelfTime: a span's self time excludes what its children cover, with
// overlapping children counted once.
func TestSelfTime(t *testing.T) {
	r := &recorder{workload: "w"}
	ms := time.Millisecond
	r.spans = []spanRec{
		{Name: "poll", Start: 0, End: 10 * ms, Parent: -1, N: 1},
		{Name: "serve", Start: 1 * ms, End: 4 * ms, Parent: 0, N: 1},
		{Name: "serve", Start: 3 * ms, End: 6 * ms, Parent: 0, N: 1},
	}
	tot := r.totals()
	if got := tot["poll"].Self; got != 5*ms {
		t.Errorf("poll self = %v, want 5ms", got)
	}
	if got := tot["serve"]; got.Total != 6*ms || got.Count != 2 {
		t.Errorf("serve totals = %+v", got)
	}
}
