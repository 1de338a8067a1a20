package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// recorder is the benchmark's own span store for the traced run: spans are
// recorded around calls into each layer's public functions (the layers are
// measured from outside), kept in memory, and written as JSON lines when
// the run ends. A nil *recorder records nothing, so the untraced run pays
// one nil check per call site.
type recorder struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex // the backend handler records from server goroutines
	spans []spanRec
}

// spanRec is one span. Parent is the index of the span that caused it, -1
// for a root; N is how many operations the span covers (a Poll that moved
// 64 readings has N = 64), 1 when it is a single call.
type spanRec struct {
	Name       string
	Start, End time.Duration // since the recorder's epoch
	Parent     int
	N          int
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, epoch: time.Now()}
}

// begin opens a span and returns its index for end and for children.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans = append(r.spans, spanRec{Name: name, Start: now, End: -1, Parent: parent, N: 1})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

// rename changes an open span's name once its outcome is known.
func (r *recorder) rename(id int, name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans[id].Name = name
	r.mu.Unlock()
}

// end closes span id, recording how many operations it covered.
func (r *recorder) end(id, n int) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].End = now
	r.spans[id].N = n
	r.mu.Unlock()
}

// spanTotals is the per-name roll-up of a recording.
type spanTotals struct {
	Count int
	N     int
	Total time.Duration
	// Self is Total minus the part of each span's interval its children
	// cover (overlapping children are counted once).
	Self time.Duration
}

// totals rolls the recording up by span name.
func (r *recorder) totals() map[string]spanTotals {
	out := make(map[string]spanTotals)
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i, s := range r.spans {
		if s.End < 0 {
			continue
		}
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return r.spans[kids[a]].Start < r.spans[kids[b]].Start })
		var covered time.Duration
		edge := s.Start
		for _, k := range kids {
			ks, ke := r.spans[k].Start, r.spans[k].End
			if ke < 0 || ke > s.End {
				ke = s.End
			}
			if ks < edge {
				ks = edge
			}
			if ke > ks {
				covered += ke - ks
				edge = ke
			}
		}
		t := out[s.Name]
		t.Count++
		t.N += s.N
		t.Total += s.End - s.Start
		t.Self += s.End - s.Start - covered
		out[s.Name] = t
	}
	return out
}

// write stores the recording as dir/trace-<workload>.jsonl, one span a line.
func (r *recorder) write(dir string) error {
	if r == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, "trace-"+r.workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, s := range r.spans {
		line := struct {
			ID       int    `json:"id"`
			Parent   int    `json:"parent"`
			Workload string `json:"workload"`
			Name     string `json:"name"`
			StartNs  int64  `json:"start_ns"`
			EndNs    int64  `json:"end_ns"`
			N        int    `json:"n"`
		}{i, s.Parent, r.workload, s.Name, s.Start.Nanoseconds(), s.End.Nanoseconds(), s.N}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
