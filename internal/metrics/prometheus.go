package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) for a Registry, so a
// stock Prometheus server — or curl — can scrape a live mesh. Instrument
// names in this repo are dotted ("tx.frames", "node.0003.queue.depth");
// Prometheus names must match [a-zA-Z_:][a-zA-Z0-9_:]*, so every other
// character becomes '_'. Counters get the conventional _total suffix.
// Histograms are rendered as Prometheus summaries: quantile-labelled
// samples plus _sum and _count.

// SanitizeName maps an instrument name to a legal Prometheus metric name.
func SanitizeName(name string) string {
	var sb strings.Builder
	sb.Grow(len(name))
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if ok {
			sb.WriteRune(r)
		} else {
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// promValue renders a sample value; Prometheus spells non-finite values
// NaN, +Inf, -Inf.
func promValue(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	default:
		return fmt.Sprintf("%g", v)
	}
}

// WritePrometheus renders every instrument in the registry, sorted by
// name for a deterministic exposition.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for name, c := range r.counters {
		counters[name] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for name, g := range r.gauges {
		gauges[name] = g
	}
	histograms := make(map[string]*Histogram, len(r.histograms))
	for name, h := range r.histograms {
		histograms[name] = h
	}
	r.mu.Unlock()

	for _, name := range SortedKeys(counters) {
		pn := SanitizeName(name) + "_total"
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", pn, pn, counters[name].Value()); err != nil {
			return err
		}
	}
	for _, name := range SortedKeys(gauges) {
		pn := SanitizeName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", pn, pn, promValue(gauges[name].Value())); err != nil {
			return err
		}
	}
	for _, name := range SortedKeys(histograms) {
		h := histograms[name]
		pn := SanitizeName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s summary\n", pn); err != nil {
			return err
		}
		if h.Count() > 0 {
			for _, q := range []float64{0.5, 0.9, 0.99} {
				if _, err := fmt.Fprintf(w, "%s{quantile=%q} %s\n", pn, fmt.Sprintf("%g", q), promValue(h.Quantile(q))); err != nil {
					return err
				}
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", pn, promValue(h.Sum()), pn, h.Count()); err != nil {
			return err
		}
	}
	return nil
}

// SortedKeys returns m's keys in ascending order: the stable order every
// report of a name-keyed map prints in.
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
