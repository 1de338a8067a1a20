package gateway

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/packet"
	"repro/internal/trace"
)

// backendModel is the collector the receipts replaced: each shard keeps
// every reading of every POST it accepted, duplicates and all, and every
// count is derived from those lists when asked.
type backendModel struct {
	got     [][]Reading
	failing []bool
	batches int
}

func newBackendModel(shards int) *backendModel {
	return &backendModel{got: make([][]Reading, shards), failing: make([]bool, shards)}
}

// post applies a decoded POST to shard i and returns the response's
// accepted count, or false when the shard is down.
func (m *backendModel) post(i int, rs []Reading) (accepted int, ok bool) {
	if m.failing[i] {
		return 0, false
	}
	before := len(m.distinct(i))
	m.got[i] = append(m.got[i], rs...)
	m.batches++
	return len(m.distinct(i)) - before, true
}

// distinct returns shard i's first copy of each trace ID, in arrival order.
func (m *backendModel) distinct(i int) []Reading {
	seen := map[trace.TraceID]bool{}
	var out []Reading
	for _, r := range m.got[i] {
		if !seen[r.Trace] {
			seen[r.Trace] = true
			out = append(out, r)
		}
	}
	return out
}

// check holds sb to the model: distinct, duplicate, double-accepted and
// batch counts, each shard's receipts in order, and each origin's count.
func (m *backendModel) check(t *testing.T, sb *ShardedBackend, what string) {
	t.Helper()
	distinct, dupes := 0, 0
	shardsOf := map[trace.TraceID]int{}
	origins := map[packet.Address]bool{}
	for _, rs := range m.got {
		for _, r := range rs {
			origins[r.From] = true
		}
	}
	for i := range m.got {
		d := m.distinct(i)
		distinct += len(d)
		dupes += len(m.got[i]) - len(d)
		var want []Receipt
		for _, r := range d {
			shardsOf[r.Trace]++
			want = append(want, Receipt{Trace: r.Trace, From: r.From})
		}
		if got := sb.Shard(i).Readings(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: shard %d receipts %v, model %v", what, i, got, want)
		}
		for a := range origins {
			want := 0
			for _, r := range d {
				if r.From == a {
					want++
				}
			}
			if got := sb.Shard(i).FromAddr(a); got != want {
				t.Fatalf("%s: shard %d FromAddr(%v) = %d, model %d", what, i, a, got, want)
			}
		}
	}
	double := 0
	for _, n := range shardsOf {
		if n > 1 {
			double++
		}
	}
	if sb.Distinct() != distinct || sb.Duplicates() != dupes || sb.DoubleAccepted() != double || sb.Batches() != m.batches {
		t.Fatalf("%s: distinct/dupes/double/batches = %d/%d/%d/%d, model %d/%d/%d/%d", what,
			sb.Distinct(), sb.Duplicates(), sb.DoubleAccepted(), sb.Batches(), distinct, dupes, double, m.batches)
	}
}

// postTo sends body to sb at path and returns the status and, on a 200,
// the accepted count of the response.
func postTo(t *testing.T, sb *ShardedBackend, path string, body []byte) (code, accepted int) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
	req.URL.Path = path
	rec := httptest.NewRecorder()
	sb.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return rec.Code, 0
	}
	resp, err := decodeUplinkResponse(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("%s: 200 with an unreadable response: %v", path, err)
	}
	return rec.Code, resp.Accepted
}

// TestBackendMatchesModel drives a ShardedBackend and the keep-everything
// model with the same seeded random POSTs — fresh readings, repeats
// within a batch, across batches and across shards, outages of one shard
// or all, malformed bodies and unknown paths — and demands the same
// response and the same counts after every step; DoubleAccepted, which
// probes the shards' indexes, allocates nothing.
func TestBackendMatchesModel(t *testing.T) {
	const steps = 300
	paths := []string{"/s/0", "/s/1", "/s/2", "/s/3"}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		shards := 1 + rng.Intn(4)
		sb, m := NewShardedBackend(shards), newBackendModel(shards)
		var sent []Reading
		for step := 0; step < steps; step++ {
			i := rng.Intn(shards)
			switch p := rng.Intn(100); {
			case p < 5:
				on := rng.Intn(2) == 0
				sb.SetFailing(on)
				for j := range m.failing {
					m.failing[j] = on
				}
			case p < 10:
				on := rng.Intn(2) == 0
				sb.Shard(i).SetFailing(on)
				m.failing[i] = on
			case p < 13:
				want := http.StatusBadRequest
				if m.failing[i] {
					want = http.StatusServiceUnavailable
				}
				body := appendUplinkRequest(nil, 1, []Reading{testReading(step)})
				if code, _ := postTo(t, sb, paths[i], body[1:]); code != want {
					t.Fatalf("seed %d step %d: malformed body answered %d, want %d", seed, step, code, want)
				}
			case p < 15:
				body := appendUplinkRequest(nil, 1, []Reading{testReading(step)})
				if code, _ := postTo(t, sb, "/s/"+strconv.Itoa(shards), body); code != http.StatusNotFound {
					t.Fatalf("seed %d step %d: shard %d of %d answered %d", seed, step, shards, shards, code)
				}
			default:
				var batch []Reading
				for k := rng.Intn(9); k > 0; k-- {
					switch q := rng.Intn(10); {
					case q < 2 && len(batch) > 0:
						batch = append(batch, batch[rng.Intn(len(batch))])
					case q < 5 && len(sent) > 0:
						batch = append(batch, sent[rng.Intn(len(sent))])
					default:
						r := testReading(len(sent))
						r.From = packet.Address(2 + rng.Intn(5))
						sent = append(sent, r)
						batch = append(batch, r)
					}
				}
				code, accepted := postTo(t, sb, paths[i], appendUplinkRequest(nil, 1, batch))
				want, ok := m.post(i, batch)
				switch {
				case !ok && code != http.StatusServiceUnavailable:
					t.Fatalf("seed %d step %d: shard %d down answered %d", seed, step, i, code)
				case ok && (code != http.StatusOK || accepted != want):
					t.Fatalf("seed %d step %d: status %d accepted %d, model 200 accepted %d", seed, step, code, accepted, want)
				}
			}
			m.check(t, sb, fmt.Sprintf("seed %d step %d", seed, step))
		}
		if a := testing.AllocsPerRun(1, func() { sb.DoubleAccepted() }); a != 0 {
			t.Fatalf("seed %d: DoubleAccepted allocates %.0f times, want none", seed, a)
		}
	}
}

// liveHeap returns the bytes of heap still reachable after a collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestBackendBytesPerReading is the backend's heap fence: 200 k distinct
// readings are held in at most 24 bytes each, a trace and an origin in two
// columns and a trace index entry, where 16-byte Receipt structs took 28.6,
// keeping the readings about 109 and a receipt beside a map entry about 42.
// It measures the live heap after a collection, so it must not run beside
// other tests.
func TestBackendBytesPerReading(t *testing.T) {
	const n, batchSize, maxBytes = 200_000, 500, 24
	batch := make([]Reading, batchSize)
	body := appendUplinkRequest(nil, 1, batch)
	b := NewBackend()
	before := liveHeap()
	for i := 0; i < n; i += batchSize {
		for k := range batch {
			batch[k] = testReading(i + k)
		}
		body = appendUplinkRequest(body[:0], 1, batch)
		rec := httptest.NewRecorder()
		b.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("POST %d: status %d", i/batchSize, rec.Code)
		}
	}
	per := float64(liveHeap()-before) / n
	if b.Distinct() != n {
		t.Fatalf("backend holds %d readings, want %d", b.Distinct(), n)
	}
	t.Logf("%.1f bytes per reading", per)
	if per > maxBytes {
		t.Fatalf("the backend holds %.1f bytes per reading, want at most %d", per, maxBytes)
	}
}

// FuzzBackendServe searches for a POST the backend answers unlike the
// model: any body at any path is a 404 (not a shard's path), a 400 (not a
// body the twin reads), or a 200 whose accepted count and every count
// after it match the keep-everything model. The body goes twice, so the
// second answer is all duplicates.
func FuzzBackendServe(f *testing.F) {
	corpus := uplinkBodyCorpus()
	for _, c := range corpus {
		for _, path := range []string{"/s/0", "/s/1"} {
			f.Add(path, c)
		}
	}
	f.Add("/s/01", corpus[0])
	f.Add("/s/2", corpus[0])
	f.Fuzz(func(t *testing.T, path string, body []byte) {
		sb, m := NewShardedBackend(2), newBackendModel(2)
		shard := map[string]int{"/s/0": 0, "/s/1": 1}
		for round := 0; round < 2; round++ {
			code, accepted := postTo(t, sb, path, body)
			i, routed := shard[path]
			ur, parsed := parseUplinkRequest(body)
			switch {
			case !routed:
				if code != http.StatusNotFound {
					t.Fatalf("%q: status %d, want 404", path, code)
				}
			case !parsed:
				if code != http.StatusBadRequest {
					t.Fatalf("%q %q: status %d, want 400", path, body, code)
				}
			default:
				want, _ := m.post(i, ur.Readings)
				if code != http.StatusOK || accepted != want {
					t.Fatalf("%q %q: status %d accepted %d, model 200 accepted %d", path, body, code, accepted, want)
				}
			}
			m.check(t, sb, fmt.Sprintf("round %d", round))
		}
	})
}
