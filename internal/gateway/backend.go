package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/packet"
	"repro/internal/trace"
)

// Backend is an embedded in-memory uplink collector: an http.Handler
// speaking the gateway's POST protocol. It exists so every layer of the
// bridge can be exercised end to end without external infrastructure —
// cmd/meshgw embeds it behind a flag, examples/sensornet drains field
// telemetry into it, experiment E11 measures against it, and the tests
// use its exactly-once bookkeeping (Duplicates) to verify dedup.
//
// It also implements the reverse path: downlink commands queued with
// PushDownlink ride out in the response to the gateway's next uplink
// POST, and fault injection (SetFailing) simulates backend
// outages so backoff and the circuit breaker can be observed.
type Backend struct {
	mu        sync.Mutex
	readings  []Reading
	seen      map[trace.TraceID]int // uploads per trace ID (first + dupes)
	downlinks []Downlink
	batches   int
	failing   bool
}

// NewBackend returns an empty collector.
func NewBackend() *Backend {
	return &Backend{seen: make(map[trace.TraceID]int)}
}

// ServeHTTP implements http.Handler for the uplink endpoint.
func (b *Backend) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	b.mu.Lock()
	if b.failing {
		b.mu.Unlock()
		http.Error(w, "injected outage", http.StatusServiceUnavailable)
		return
	}
	b.mu.Unlock()

	ur, err := decodeUplinkRequest(req.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	b.mu.Lock()
	accepted := 0
	for _, r := range ur.Readings {
		b.seen[r.Trace]++
		if b.seen[r.Trace] == 1 {
			b.readings = append(b.readings, r)
			accepted++
		}
	}
	b.batches++
	resp := uplinkResponse{Accepted: accepted, Downlinks: b.downlinks}
	b.downlinks = nil
	b.mu.Unlock()

	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// decodeUplinkRequest decodes a POST body. The one body it accepts is what
// appendUplinkRequest writes; parseUplinkRequest reads it.
func decodeUplinkRequest(body io.Reader) (uplinkRequest, error) {
	b, err := io.ReadAll(body)
	if err != nil {
		return uplinkRequest{}, fmt.Errorf("gateway: read uplink body: %w", err)
	}
	ur, ok := parseUplinkRequest(b)
	if !ok {
		return uplinkRequest{}, errors.New("gateway: malformed uplink body")
	}
	return ur, nil
}

// SetFailing switches an indefinite outage on or off.
func (b *Backend) SetFailing(on bool) {
	b.mu.Lock()
	b.failing = on
	b.mu.Unlock()
}

// PushDownlink queues a command for the mesh; it departs in the response
// to the next successful uplink POST.
func (b *Backend) PushDownlink(d Downlink) {
	b.mu.Lock()
	b.downlinks = append(b.downlinks, d)
	b.mu.Unlock()
}

// Readings returns the distinct readings received, in arrival order.
func (b *Backend) Readings() []Reading {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]Reading(nil), b.readings...)
}

// Distinct returns how many unique readings (by trace ID) arrived.
func (b *Backend) Distinct() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.readings)
}

// Duplicates returns how many redundant uploads arrived — readings whose
// trace ID had already been accepted. Zero means the gateway achieved
// exactly-once delivery.
func (b *Backend) Duplicates() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	d := 0
	for _, n := range b.seen {
		d += n - 1
	}
	return d
}

// Batches returns how many uplink POSTs succeeded.
func (b *Backend) Batches() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.batches
}

// FromAddr returns the distinct readings originated by a given node.
func (b *Backend) FromAddr(a packet.Address) []Reading {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []Reading
	for _, r := range b.readings {
		if r.From == a {
			out = append(out, r)
		}
	}
	return out
}

// ShardedBackend is N Backend collectors behind one handler — the
// horizontally sharded ingest tier the gateway's consistent-hash
// partitioning uploads into. Shard i listens at path "/s/<i>"; wire a
// gateway with Config.URLs = sb.URLs(server.URL). Each shard dedups
// independently, exactly like a real partitioned store: cross-gateway
// exactly-once holds only if every gateway maps an origin to the same
// shard, which is precisely what DoubleAccepted verifies.
type ShardedBackend struct {
	shards []*Backend
}

// NewShardedBackend returns n empty shard collectors.
func NewShardedBackend(n int) *ShardedBackend {
	if n < 1 {
		n = 1
	}
	sb := &ShardedBackend{}
	for i := 0; i < n; i++ {
		sb.shards = append(sb.shards, NewBackend())
	}
	return sb
}

// ServeHTTP routes "/s/<i>", exactly as URLs writes it, to shard i; any
// other path is 404.
func (sb *ShardedBackend) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	num, ok := strings.CutPrefix(req.URL.Path, "/s/")
	i, err := strconv.Atoi(num)
	if !ok || err != nil || strconv.Itoa(i) != num || i < 0 || i >= len(sb.shards) {
		http.Error(w, "no such shard", http.StatusNotFound)
		return
	}
	sb.shards[i].ServeHTTP(w, req)
}

// URLs derives the per-shard endpoint list from the server's base URL.
func (sb *ShardedBackend) URLs(base string) []string {
	urls := make([]string, len(sb.shards))
	for i := range sb.shards {
		urls[i] = fmt.Sprintf("%s/s/%d", base, i)
	}
	return urls
}

// Shard exposes one shard's collector.
func (sb *ShardedBackend) Shard(i int) *Backend { return sb.shards[i] }

// Distinct sums the unique readings accepted across all shards. If an
// origin's readings ever split across shards this exceeds the true
// unique count — use DoubleAccepted to detect that directly.
func (sb *ShardedBackend) Distinct() int {
	total := 0
	for _, b := range sb.shards {
		total += b.Distinct()
	}
	return total
}

// Duplicates sums redundant uploads across shards — uploads whose trace
// ID the receiving shard had already accepted. Nonzero is normal under
// handover or crash replay (the WAL re-uploads, the shard suppresses);
// it measures wasted uplink work, not a correctness violation.
func (sb *ShardedBackend) Duplicates() int {
	total := 0
	for _, b := range sb.shards {
		total += b.Duplicates()
	}
	return total
}

// DoubleAccepted counts trace IDs accepted (stored) by MORE than one
// shard — the exactly-once violation sharded dedup must prevent: it can
// only happen when two gateways map the same origin to different
// shards. Zero means cross-gateway exactly-once held.
func (sb *ShardedBackend) DoubleAccepted() int {
	counts := make(map[trace.TraceID]int)
	for _, b := range sb.shards {
		for _, r := range b.Readings() {
			counts[r.Trace]++
		}
	}
	double := 0
	for _, n := range counts {
		if n > 1 {
			double++
		}
	}
	return double
}

// Batches sums successful uplink POSTs across shards.
func (sb *ShardedBackend) Batches() int {
	total := 0
	for _, b := range sb.shards {
		total += b.Batches()
	}
	return total
}

// SetFailing switches an indefinite outage on or off for every shard.
func (sb *ShardedBackend) SetFailing(on bool) {
	for _, b := range sb.shards {
		b.SetFailing(on)
	}
}
