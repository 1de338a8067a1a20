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
// It keeps a receipt of each distinct reading, not the reading: the
// payload ends its journey at the accept, so a long run holds its trace and
// origin, 10 bytes in two columns, and 8 to 16 bytes of traceIndex table a
// reading.
//
// It also implements the reverse path: downlink commands queued with
// PushDownlink ride out in the response to the gateway's next uplink
// POST, and fault injection (SetFailing) simulates backend
// outages so backoff and the circuit breaker can be observed.
type Backend struct {
	mu sync.Mutex
	// traces and froms are the receipts' columns: entry i is the i-th
	// distinct reading to arrive.
	traces    []trace.TraceID
	froms     []packet.Address
	accepted  traceIndex // over traces: the trace IDs already accepted
	dupes     int        // uploads of a trace ID already accepted
	downlinks []Downlink
	batches   int
	failing   bool
}

// Receipt is what the backend keeps of an accepted reading; it stores the
// two fields in columns and Readings zips them.
type Receipt struct {
	Trace trace.TraceID
	From  packet.Address
}

// NewBackend returns an empty collector.
func NewBackend() *Backend {
	b := &Backend{}
	b.accepted = newTraceIndex(func(pos int) trace.TraceID { return b.traces[pos] })
	return b
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
		if b.accepted.has(r.Trace) {
			b.dupes++
			continue
		}
		b.traces = append(b.traces, r.Trace)
		b.froms = append(b.froms, r.From)
		b.accepted.add(len(b.traces) - 1)
		accepted++
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

// Readings returns a receipt for each distinct reading received, in
// arrival order; nil before the first.
func (b *Backend) Readings() []Receipt {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.traces) == 0 {
		return nil
	}
	out := make([]Receipt, len(b.traces))
	for i := range out {
		out[i] = Receipt{Trace: b.traces[i], From: b.froms[i]}
	}
	return out
}

// Distinct returns how many unique readings (by trace ID) arrived.
func (b *Backend) Distinct() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.traces)
}

// Duplicates returns how many redundant uploads arrived — readings whose
// trace ID had already been accepted. Zero means the gateway achieved
// exactly-once delivery.
func (b *Backend) Duplicates() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dupes
}

// Batches returns how many uplink POSTs succeeded.
func (b *Backend) Batches() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.batches
}

// FromAddr returns how many distinct readings the node a originated.
func (b *Backend) FromAddr(a packet.Address) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, from := range b.froms {
		if from == a {
			n++
		}
	}
	return n
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
// shards. Zero means cross-gateway exactly-once held. It probes the
// earlier shards' indexes for each receipt and allocates nothing: an ID
// counts once, at the second shard that accepted it.
func (sb *ShardedBackend) DoubleAccepted() int {
	for _, b := range sb.shards {
		b.mu.Lock()
	}
	double := 0
	for i, b := range sb.shards {
		for _, id := range b.traces {
			earlier := 0
			for _, e := range sb.shards[:i] {
				if e.accepted.has(id) {
					earlier++
				}
			}
			if earlier == 1 {
				double++
			}
		}
	}
	for _, b := range sb.shards {
		b.mu.Unlock()
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
