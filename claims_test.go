package repro

import (
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
)

// claims holds, per experiment, the predicate its notes state over its
// rows. TestAllExperimentsQuick evaluates each one on the table it
// renders, so a re-pin that breaks what a note says fails even when the
// table is regenerated.
var claims = map[string]func(*experiments.Result) error{
	"E7": claimE7,
	"X6": claimX6,
	"X7": claimX7,
}

// claimE7: "flooding spends more airtime than routed forwarding for
// comparable delivery" — more airtime, more transmissions per delivery,
// and a PDR within 5 points of LoRaMesher's.
func claimE7(res *experiments.Result) error {
	t := table{res}
	mesher, flood := t.row("LoRaMesher"), t.row("flooding")
	if mesher == nil || flood == nil {
		return fmt.Errorf("want LoRaMesher and flooding rows")
	}
	var errs []string
	if !(t.dur(flood, "airtime") > t.dur(mesher, "airtime")) {
		errs = append(errs, "flooding airtime is not above LoRaMesher's")
	}
	if !(t.num(flood, "tx per delivery") > t.num(mesher, "tx per delivery")) {
		errs = append(errs, "flooding does not transmit more per delivery")
	}
	if d := t.pct(flood, "PDR") - t.pct(mesher, "PDR"); d < -5 || d > 5 {
		errs = append(errs, fmt.Sprintf("PDRs differ by %.1f points, not comparable", d))
	}
	return t.join(errs)
}

// claimX6: proactive pays idle beacons and reactive is silent when idle;
// reactive's first packet waits out a discovery round trip; flooding
// transmits the most.
func claimX6(res *experiments.Result) error {
	t := table{res}
	pro, rea, flood := t.row("LoRaMesher (proactive)"), t.row("AODV-lite (reactive)"), t.row("flooding")
	if pro == nil || rea == nil || flood == nil {
		return fmt.Errorf("want proactive, reactive and flooding rows")
	}
	var errs []string
	if !(t.dur(rea, "idle airtime/h") < t.dur(pro, "idle airtime/h")) {
		errs = append(errs, "reactive idle airtime is not below proactive's")
	}
	if !(t.dur(rea, "first-packet latency") > t.dur(pro, "first-packet latency")) {
		errs = append(errs, "reactive first-packet latency is not above proactive's")
	}
	if f := t.num(flood, "tx frames"); !(f > t.num(pro, "tx frames") && f > t.num(rea, "tx frames")) {
		errs = append(errs, "flooding does not transmit the most frames")
	}
	return t.join(errs)
}

// claimX7 checks the shoot-out's notes: on the many-reader workload ICN
// spends less airtime than proactive and flooding and its content store
// answers; an ICN offer is one (reader, round); the fault-free slotted row
// has no latency_bound violation; only city rows carry a digest; and at
// city scale ICN's story is airtime, not PDR.
func claimX7(res *experiments.Result) error {
	t := table{res}
	many := func(kind string) []string { return t.find(kind, "many-reader") }
	city := func(kind string) []string { return t.find(kind, "citysim") }
	var errs []string

	pro, flood, icn := many("proactive"), many("flooding"), many("icn")
	if pro == nil || flood == nil || icn == nil {
		return fmt.Errorf("want proactive, flooding and icn many-reader rows")
	}
	if air := t.dur(icn, "air/node/h"); !(air < t.dur(pro, "air/node/h") && air < t.dur(flood, "air/node/h")) {
		errs = append(errs, "many-reader ICN airtime does not beat proactive and flooding")
	}
	if !(t.detail(icn, "cs.hit") > 0) {
		errs = append(errs, "many-reader ICN recorded no content-store hit")
	}

	m := regexp.MustCompile(`chaos chain \(([^)]+)\), many-reader \(([^)]+)\)`).FindStringSubmatch(res.Title)
	if m == nil {
		return fmt.Errorf("title %q names no run lengths", res.Title)
	}
	chainFor, err1 := time.ParseDuration(m[1])
	manyFor, err2 := time.ParseDuration(m[2])
	if err1 != nil || err2 != nil {
		return fmt.Errorf("title %q: bad run lengths", res.Title)
	}
	var readers int
	if _, err := fmt.Sscanf(icn[t.col("scenario")], "many-reader 4x4 grid, %d readers", &readers); err != nil {
		return fmt.Errorf("many-reader scenario %q: %v", icn[t.col("scenario")], err)
	}
	// Chain: 4 readers re-express every 2 min; grid: every 10 min.
	for _, c := range []struct {
		row     []string
		readers int
		rounds  int
	}{
		{t.find("icn", "baseline"), 4, int(chainFor / (2 * time.Minute))},
		{icn, readers, int(manyFor / (10 * time.Minute))},
	} {
		if want := c.readers * c.rounds; c.row == nil || int(t.num(c.row, "offered")) != want {
			errs = append(errs, fmt.Sprintf("ICN offered is not one per (reader, round): want %d", want))
		}
	}

	if slot := t.find("slotted", "baseline"); slot == nil || t.detail(slot, "viol") != 0 {
		errs = append(errs, "the fault-free slotted row has latency_bound violations")
	}
	hex := regexp.MustCompile(`^[0-9a-f]{16}$`)
	for _, row := range res.Rows {
		isCity := strings.HasPrefix(row[t.col("scenario")], "citysim")
		if hex.MatchString(row[t.col("digest")]) != isCity {
			errs = append(errs, fmt.Sprintf("row %s/%s: a digest belongs to city rows only", row[0], row[1]))
		}
	}
	cpro, cicn := city("proactive"), city("icn")
	if cpro == nil || cicn == nil {
		return fmt.Errorf("want proactive and icn city rows")
	}
	if !(t.pct(cicn, "PDR") < t.pct(cpro, "PDR") && t.dur(cicn, "air/node/h") < t.dur(cpro, "air/node/h")) {
		errs = append(errs, "city ICN does not trade PDR for airtime against proactive")
	}
	return t.join(errs)
}

// table reads a rendered Result by column name. A cell that does not
// parse reads as NaN, so every comparison on it fails.
type table struct{ res *experiments.Result }

func (t table) col(name string) int {
	for i, h := range t.res.Header {
		if h == name {
			return i
		}
	}
	panic("no column " + name)
}

// row returns the row whose first cell is name.
func (t table) row(name string) []string {
	for _, r := range t.res.Rows {
		if r[0] == name {
			return r
		}
	}
	return nil
}

// find returns the first row of strategy kind whose scenario starts with
// prefix.
func (t table) find(kind, prefix string) []string {
	for _, r := range t.res.Rows {
		if r[0] == kind && strings.HasPrefix(r[t.col("scenario")], prefix) {
			return r
		}
	}
	return nil
}

func (t table) num(row []string, col string) float64 {
	f, err := strconv.ParseFloat(row[t.col(col)], 64)
	if err != nil {
		return nan
	}
	return f
}

func (t table) pct(row []string, col string) float64 {
	f, err := strconv.ParseFloat(strings.TrimSuffix(row[t.col(col)], "%"), 64)
	if err != nil {
		return nan
	}
	return f
}

// dur parses the experiments' duration cells: "88ms", "2.74s", "1.8min",
// "2.5h", "1.2d". It returns seconds.
func (t table) dur(row []string, col string) float64 {
	cell := row[t.col(col)]
	unit := map[string]float64{"ms": 1e-3, "s": 1, "min": 60, "h": 3600, "d": 86400}
	for _, suffix := range []string{"ms", "min", "s", "h", "d"} {
		if num, ok := strings.CutSuffix(cell, suffix); ok {
			if f, err := strconv.ParseFloat(num, 64); err == nil {
				return f * unit[suffix]
			}
			break
		}
	}
	return nan
}

// detail reads key=value out of the "strategy detail" cell.
func (t table) detail(row []string, key string) float64 {
	for _, f := range strings.Fields(row[t.col("strategy detail")]) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			if x, err := strconv.ParseFloat(v, 64); err == nil {
				return x
			}
		}
	}
	return nan
}

func (t table) join(errs []string) error {
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("%s", strings.Join(errs, "; "))
}

var nan = math.NaN()

// TestClaimsFailOnBrokenTables is the claims' mutation fence: each
// published table satisfies its claim, and each listed one-cell edit of
// it — the edit a regression would make — breaks the claim.
func TestClaimsFailOnBrokenTables(t *testing.T) {
	published := publishedTables(t)
	type edit struct{ kind, scenario, col, value string }
	for id, edits := range map[string][]edit{
		"E7": {
			{"flooding", "", "airtime", "1.0min"},
			{"flooding", "", "tx per delivery", "1.0"},
			{"flooding", "", "PDR", "80.0%"},
		},
		"X6": {
			{"AODV-lite (reactive)", "", "idle airtime/h", "9.99s"},
			{"AODV-lite (reactive)", "", "first-packet latency", "1ms"},
			{"flooding", "", "tx frames", "1"},
		},
		"X7": {
			{"icn", "many-reader", "air/node/h", "9.99s"},
			{"icn", "many-reader", "strategy detail", "cs.hit=0 agg=1"},
			{"icn", "baseline", "offered", "239"},
			{"slotted", "baseline", "strategy detail", "defer=1 viol=1"},
			{"proactive", "baseline", "digest", "0123456789abcdef"},
			{"icn", "citysim", "air/node/h", "9.99s"},
		},
	} {
		if err := claims[id](parseTable(t, published[id])); err != nil {
			t.Errorf("%s: the published table fails its claim: %v", id, err)
		}
		for _, e := range edits {
			res := parseTable(t, published[id])
			tb := table{res}
			row := tb.row(e.kind)
			if e.scenario != "" {
				row = tb.find(e.kind, e.scenario)
			}
			row[tb.col(e.col)] = e.value
			if claims[id](res) == nil {
				t.Errorf("%s: setting %s/%s %q to %q leaves the claim standing", id, e.kind, e.scenario, e.col, e.value)
			}
		}
	}
}

// parseTable reads a rendered table back into a Result, cutting columns
// at the extents of the dash line under the header.
func parseTable(t *testing.T, text string) *experiments.Result {
	t.Helper()
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	if len(lines) < 3 {
		t.Fatalf("table too short: %q", text)
	}
	title := strings.TrimSuffix(lines[0], " ==")
	if _, after, ok := strings.Cut(title, ": "); ok {
		title = after
	}
	var spans [][2]int
	for _, m := range regexp.MustCompile(`-+`).FindAllStringIndex(lines[2], -1) {
		spans = append(spans, [2]int{m[0], m[1]})
	}
	cut := func(line string) []string {
		var cells []string
		for i, s := range spans {
			lo, hi := min(s[0], len(line)), len(line)
			if i+1 < len(spans) {
				hi = min(spans[i+1][0], len(line))
			}
			cells = append(cells, strings.TrimSpace(line[lo:hi]))
		}
		return cells
	}
	res := &experiments.Result{Title: title, Header: cut(lines[1])}
	for _, line := range lines[3:] {
		if note, ok := strings.CutPrefix(line, "note: "); ok {
			res.Notes = append(res.Notes, note)
			continue
		}
		res.Rows = append(res.Rows, cut(line))
	}
	return res
}
