package main

// spec.go — the benchmark's contract in one place: workloads, end-to-end
// metrics with their regression bounds, and per-layer metrics. The
// BENCHMARK.json at the repository root states the same tables for the
// driver; TestSpecMatchesBenchmarkJSON keeps the two identical.

// workloadSpec names one workload and why it exists.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricSpec declares one metric. Bound is the share of the parent's median
// by which an end-to-end metric may worsen before a change is rejected;
// per-layer metrics carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	wCityTelemetry = "city_telemetry"
	wCityICN       = "city_icn"
	wMeshSecure    = "mesh_secure"
	wIngestOutage  = "ingest_outage"
)

var workloads = []workloadSpec{
	{wCityTelemetry, "10k-node push telemetry on citysim at 2 shards: citysim, loraphy and simtime do the work; packet, meshsec, core, airmedium and gateway do none, so a gain there must not show here"},
	{wCityICN, "same city, ICN pull strategy: interest/data, PIT aggregation and TTL caches use the citysim layer differently, so a cost added to strategy dispatch shows here and not in city_telemetry"},
	{wMeshSecure, "64-node per-node engine with every protocol feature on (DV routing, datagrams, reliable stream, duty cycle, link security): core, routing, packet, meshsec, airmedium; citysim and gateway idle"},
	{wIngestOutage, "gateway half of the path over loopback: paced 10k/s steady phase (latency), then backend outages into the WAL, each followed by a restart and a drain (throughput, WAL read and write); no sim layer"},
}

// endToEnd is what a user of the system sees, reported by every workload.
// Simulated metrics (pdr, delivery_p75_s and airtime_s_per_delivery on the
// three sims) repeat exactly per (workload, seed); the rest is host time.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"live_heap_mb", "MiB", "lower", 0.10},
	{"pdr", "ratio", "higher", 0.15},
	{"delivery_p75_s", "s", "lower", 0.20},
	{"airtime_s_per_delivery", "s", "lower", 0.15},
}

// perLayer is reported by the traced run; a layer a workload does not
// exercise reports 0 (no work done, no time spent).
var perLayer = []metricSpec{
	// citysim: city_* only.
	{"citysim.new_s", "s", "lower", 0},
	{"citysim.run_ns_per_frame", "ns", "lower", 0},
	{"citysim.ns_per_event", "ns", "lower", 0},
	{"citysim.events_per_frame", "ratio", "lower", 0},
	{"citysim.windows", "count", "lower", 0},
	{"citysim.fastforward_ratio", "ratio", "higher", 0},
	{"citysim.shard_speedup", "ratio", "higher", 0},
	{"citysim.state_bytes_per_node", "B", "lower", 0},
	{"citysim.alloc_bytes_per_frame", "B", "lower", 0},
	{"citysim.allocs_per_frame", "count", "lower", 0},
	{"citysim.readout_s", "s", "lower", 0},
	{"citysim.collision_ratio", "ratio", "lower", 0},
	{"citysim.queue_drop_ratio", "ratio", "lower", 0},
	{"citysim.cache_hit_ratio", "ratio", "higher", 0},
	{"citysim.interest_aggregation_ratio", "ratio", "higher", 0},
	// loraphy and simtime: the three sims.
	{"loraphy.airtime_ns", "ns", "lower", 0},
	{"loraphy.pathloss_ns", "ns", "lower", 0},
	{"loraphy.shadowed_pathloss_ns", "ns", "lower", 0},
	{"loraphy.receive_ns", "ns", "lower", 0},
	{"loraphy.survives_ns", "ns", "lower", 0},
	{"simtime.schedule_fire_ns", "ns", "lower", 0},
	{"simtime.cancel_ns", "ns", "lower", 0},
	{"simtime.est_share", "ratio", "lower", 0},
	// packet, meshsec, airmedium, dutycycle, routing, core, netsim:
	// mesh_secure only.
	{"packet.marshal_ns", "ns", "lower", 0},
	{"packet.unmarshal_ns", "ns", "lower", 0},
	{"packet.hello_marshal_ns", "ns", "lower", 0},
	{"packet.hello_unmarshal_ns", "ns", "lower", 0},
	{"packet.allocs_per_unmarshal", "count", "lower", 0},
	{"meshsec.seal_ns", "ns", "lower", 0},
	{"meshsec.open_ns", "ns", "lower", 0},
	{"meshsec.verify_ns", "ns", "lower", 0},
	{"meshsec.reject_ratio", "ratio", "lower", 0},
	{"meshsec.overhead_byte_share", "ratio", "lower", 0},
	{"airmedium.transmit_ns_per_frame", "ns", "lower", 0},
	{"airmedium.ns_per_reception", "ns", "lower", 0},
	{"airmedium.delivery_ratio", "ratio", "higher", 0},
	{"airmedium.collision_ratio", "ratio", "lower", 0},
	{"dutycycle.can_transmit_ns", "ns", "lower", 0},
	{"dutycycle.record_ns", "ns", "lower", 0},
	{"dutycycle.deferrals", "count", "lower", 0},
	{"routing.apply_hello_ns", "ns", "lower", 0},
	{"routing.updates_per_hello", "ratio", "lower", 0},
	{"netsim.new_s", "s", "lower", 0},
	{"netsim.run_ns_per_frame", "ns", "lower", 0},
	{"netsim.events_per_frame", "ratio", "lower", 0},
	{"netsim.rx_per_tx", "ratio", "lower", 0},
	{"netsim.alloc_bytes_per_frame", "B", "lower", 0},
	{"netsim.allocs_per_frame", "count", "lower", 0},
	{"netsim.observer_overhead_ratio", "ratio", "lower", 0},
	{"netsim.unattributed_share", "ratio", "lower", 0},
	{"core.queue_drop_ratio", "ratio", "lower", 0},
	{"core.hello_share_of_frames", "ratio", "lower", 0},
	{"core.streams_completed", "count", "higher", 0},
	{"core.streams_failed", "count", "lower", 0},
	// gateway: ingest_outage only.
	{"gateway.offer_ns", "ns", "lower", 0},
	{"gateway.offer_dup_ns", "ns", "lower", 0},
	{"gateway.dedup_hit_ratio", "ratio", "higher", 0},
	{"gateway.poll_ns_per_reading_shallow", "ns", "lower", 0},
	{"gateway.poll_ns_per_reading_deep", "ns", "lower", 0},
	{"gateway.poll_self_ns_per_reading", "ns", "lower", 0},
	{"gateway.backend_serve_ns_per_reading", "ns", "lower", 0},
	{"gateway.batch_fill_ratio", "ratio", "higher", 0},
	{"gateway.batches", "count", "lower", 0},
	{"gateway.compactions", "count", "lower", 0},
	{"gateway.compact_ms_total", "ms", "lower", 0},
	{"gateway.wal_replay_ns_per_record", "ns", "lower", 0},
	{"gateway.wal_bytes_per_reading", "B", "lower", 0},
	{"gateway.uplink_failures", "count", "lower", 0},
	{"gateway.duplicate_uploads", "count", "lower", 0},
	{"gateway.close_s", "s", "lower", 0},
	// the benchmark itself, every workload unless noted.
	{"ingest.gen_late_ms_max", "ms", "lower", 0},
	{"ingest.lat_p50_ms", "ms", "lower", 0},
	{"ingest.lat_p99_ms", "ms", "lower", 0},
	{"ingest.lat_p999_ms", "ms", "lower", 0},
	{"bench.delivery_p50_s", "s", "lower", 0},
	{"bench.delivery_p99_s", "s", "lower", 0},
	{"bench.trace_overhead_ratio", "ratio", "lower", 0},
}
