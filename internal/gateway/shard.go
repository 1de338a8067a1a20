package gateway

import (
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/packet"
)

// This file holds the sharded-ingest machinery: the consistent hash ring
// that partitions readings across backend shards by their origin address,
// and the per-shard state (spool, uplink window, backoff, breaker) that
// lets shards make progress independently.
//
// Why consistent hashing by origin rather than round-robin or by trace
// ID: every gateway in a fleet computes the same origin→shard mapping
// from nothing but the shard count, so when a sensor hands over from
// gateway A to gateway B — or its readings are re-delivered through B
// after A crashes — both gateways upload that origin's readings to the
// SAME backend shard, whose dedup horizon then suppresses the duplicate.
// Round-robin would scatter the two copies across shards and double-
// accept them; hashing the full trace ID would too, since the replayed
// copy rides a different uplink batch but the same ID must land on the
// same shard, which origin hashing guarantees for free (a trace ID's
// origin never changes). The ring's virtual points keep the partition
// balanced and stable as shard counts change between deployments.

// ringReplicas is the number of virtual points each shard places on the
// ring. Shard share deviation shrinks as ~1/sqrt(replicas): 256 points
// keeps the worst shard within ~±10% of fair share while the whole ring
// (shards*256 points) stays small enough to rebuild on every New.
const ringReplicas = 256

// hashRing maps mesh origin addresses onto backend shards.
type hashRing struct {
	points []uint64 // sorted virtual points
	owner  []int    // owner[i] is the shard owning points[i]
	shards int
}

// fnv1a64 folds a byte sequence with FNV-1a and finishes with a 64-bit
// avalanche mix. The mix is not optional: raw FNV-1a over a 2-byte mesh
// address leaves all addresses sharing a high byte within a ~2^48-wide
// band of hash space — a 1/65536 sliver of the ring — so without it every
// origin in a typical deployment lands on one shard's segment and the
// "sharded" ingest degenerates to a single lane.
func fnv1a64(data ...byte) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, b := range data {
		h ^= uint64(b)
		h *= prime
	}
	// fmix64 finalizer: full avalanche, so short keys spread uniformly.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// newHashRing builds the ring for the given shard count. Every gateway
// and backend with the same shard count derives the identical ring.
func newHashRing(shards int) *hashRing {
	if shards < 1 {
		shards = 1
	}
	r := &hashRing{shards: shards}
	if shards == 1 {
		return r
	}
	type pt struct {
		h uint64
		s int
	}
	pts := make([]pt, 0, shards*ringReplicas)
	for s := 0; s < shards; s++ {
		for v := 0; v < ringReplicas; v++ {
			h := fnv1a64(byte(s>>8), byte(s), 0x9e, byte(v>>8), byte(v))
			pts = append(pts, pt{h, s})
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].h < pts[j].h })
	r.points = make([]uint64, len(pts))
	r.owner = make([]int, len(pts))
	for i, p := range pts {
		r.points[i] = p.h
		r.owner[i] = p.s
	}
	return r
}

// shard returns the backend shard owning the given origin address.
func (r *hashRing) shard(origin packet.Address) int {
	if r.shards == 1 {
		return 0
	}
	h := fnv1a64(byte(origin>>8), byte(origin))
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i] >= h })
	if i == len(r.points) {
		i = 0 // wrap past the highest point
	}
	return r.owner[i]
}

// gwShard is one backend shard's independent ingest lane: its own spool
// (dedup horizon + WAL), uplink window, backoff, and circuit breaker,
// all behind its own lock so lanes never contend with each other.
type gwShard struct {
	id  int
	url string

	mu sync.Mutex
	sp *spool
	// lastFlush anchors the time-triggered flush for this lane.
	lastFlush time.Time
	// consecFails drives backoff growth and the breaker.
	consecFails int
	nextRetryAt time.Time
	breakerOpen bool
	breakerTil  time.Time
	// inflightBatches counts launched-but-unapplied posts; bounded by
	// Config.Pipeline. The spool marks the readings they carry, so
	// overlapping launches never upload the same reading twice.
	inflightBatches int
	// kick wakes the lane's real-time loop when its batch fills.
	kick chan struct{}

	// Per-lane instruments, resolved once (fmt on the hot path would
	// undo the sharding win).
	gDepth    *metrics.Gauge
	gInflight *metrics.Gauge
	gBreaker  *metrics.Gauge
	cUplinked *metrics.Counter
}

// newGwShard wires one lane and its instruments.
func newGwShard(id int, url string, sp *spool, reg *metrics.Registry) *gwShard {
	prefix := "gw.shard." + strconv.Itoa(id) + "."
	return &gwShard{
		id:        id,
		url:       url,
		sp:        sp,
		kick:      make(chan struct{}, 1),
		gDepth:    reg.Gauge(prefix + "depth"),
		gInflight: reg.Gauge(prefix + "inflight"),
		gBreaker:  reg.Gauge(prefix + "breaker_open"),
		cUplinked: reg.Counter(prefix + "uplinked"),
	}
}

// walShardPath derives shard i's WAL path from the configured base path.
// A single-shard gateway keeps the base path itself, so existing spools
// replay unchanged; a sharded gateway suffixes ".s<i>". Shard counts must
// stay stable across restarts of the same spool directory — the mapping
// of origins to lanes (and so to WAL files) is a function of the count.
func walShardPath(base string, i, n int) string {
	if base == "" {
		return ""
	}
	if n <= 1 {
		return base
	}
	return base + ".s" + strconv.Itoa(i)
}
