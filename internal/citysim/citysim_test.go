package citysim

import (
	"fmt"
	"os"
	"testing"
	"time"
)

// runOnce builds and runs one simulation, returning stats and digest.
func runOnce(t *testing.T, cfg Config, d time.Duration) (Stats, uint64) {
	t.Helper()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(d); err != nil {
		t.Fatal(err)
	}
	return sim.Stats(), sim.Digest()
}

// TestCityBasics checks that a small city forms routes and delivers
// telemetry to its sinks within a few hello periods.
func TestCityBasics(t *testing.T) {
	cfg := Config{Nodes: 300, Seed: 1, Shards: 2, Sinks: 2}
	st, _ := runOnce(t, cfg, 10*time.Minute)
	if st.Sinks != 2 {
		t.Fatalf("elected %d sinks, want 2", st.Sinks)
	}
	if st.FramesSent == 0 || st.FramesDelivered == 0 {
		t.Fatalf("no radio traffic: %+v", st)
	}
	if st.Offered == 0 {
		t.Fatal("no telemetry offered")
	}
	if st.PDR() < 0.5 {
		t.Fatalf("PDR %.3f below 0.5 (delivered %d / offered %d)", st.PDR(), st.Delivered, st.Offered)
	}
	if st.MeanLatency() <= 0 {
		t.Fatalf("mean latency %v not positive", st.MeanLatency())
	}
	if st.Windows == 0 || st.FastForwards == 0 {
		t.Fatalf("window loop never fast-forwarded: %+v", st)
	}
	if st.StateBytes == 0 || st.EventsFired == 0 {
		t.Fatalf("missing resource accounting: %+v", st)
	}
}

// TestCityRunTwiceRejected pins the one-shot Run contract.
func TestCityRunTwiceRejected(t *testing.T) {
	sim, err := New(Config{Nodes: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(time.Second); err == nil {
		t.Fatal("second Run succeeded")
	}
}

// TestCityConfigValidation walks the rejection paths.
func TestCityConfigValidation(t *testing.T) {
	bad := []Config{
		{Nodes: 1},
		{Nodes: 10, Shards: -1},
		{Nodes: 10, ExtraFrameLossRate: 1.0},
		{Nodes: 10, ShadowSigmaDB: -1},
		{Nodes: 10, Window: time.Hour},
		{Nodes: 10, Sinks: 11},
		{Nodes: 10, QueueCap: 300},
		{Nodes: 10, TTLHops: 255},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// TestCityDeterminism is the tentpole acceptance: the digest — routing
// tables, per-node counters, queue contents, the delivery log, merged
// stats — is byte-identical between the serial reference (Shards: 0) and
// every sharded execution, per (config, seed), including with shadowing
// and erasures switched on.
func TestCityDeterminism(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			base := Config{
				Nodes:              240,
				Seed:               seed,
				Sinks:              2,
				ShadowSigmaDB:      4,
				ExtraFrameLossRate: 0.02,
			}
			const d = 8 * time.Minute
			serial, want := runOnce(t, base, d)
			if serial.Shards != 1 {
				t.Fatalf("serial mode ran %d shards", serial.Shards)
			}
			for _, shards := range []int{1, 2, 4} {
				cfg := base
				cfg.Shards = shards
				st, got := runOnce(t, cfg, d)
				if got != want {
					t.Errorf("shards=%d digest %016x, serial %016x (stats %+v vs %+v)",
						shards, got, want, st, serial)
				}
				if st.Windows != serial.Windows || st.FastForwards != serial.FastForwards {
					t.Errorf("shards=%d window sequence diverged: %d/%d vs serial %d/%d",
						shards, st.Windows, st.FastForwards, serial.Windows, serial.FastForwards)
				}
			}
		})
	}
}

// TestCityShardBarrierRace exercises the multi-goroutine barrier under the
// race detector (scripts/check.sh runs this package with -race): a real
// multi-shard run with enough traffic that every phase and the pruning
// path execute concurrently.
func TestCityShardBarrierRace(t *testing.T) {
	cfg := Config{Nodes: 400, Seed: 3, Shards: 4, Sinks: 2, ShadowSigmaDB: 3}
	st, _ := runOnce(t, cfg, 6*time.Minute)
	if st.Shards < 2 {
		t.Fatalf("wanted a multi-shard run, got %d shards", st.Shards)
	}
	if st.FramesDelivered == 0 {
		t.Fatalf("no deliveries: %+v", st)
	}
}

// TestScaleSmoke is the CI scale-regression gate (satellite #1), gated
// behind SCALE_SMOKE=1 because it simulates a 10k-node city. It fails on
// either (a) serial-vs-sharded trace divergence — digest mismatch — or
// (b) an events/sec speedup below 2.0 (the sharded executor must beat the
// full-scan design by at least that factor even on one core, because its
// win is algorithmic: cell-bounded neighbor scans instead of O(n) per
// transmission).
func TestScaleSmoke(t *testing.T) {
	if os.Getenv("SCALE_SMOKE") == "" {
		t.Skip("set SCALE_SMOKE=1 to run the 10k-node scale gate")
	}
	const floor = 2.0
	cfg := Config{Nodes: 10000, Seed: 1}
	const d = 2 * time.Minute
	serial, serialDigest := runOnce(t, cfg, d)
	cfg.Shards = 4
	sharded, shardedDigest := runOnce(t, cfg, d)

	t.Logf("serial:  events=%d wall=%v events/sec=%.0f", serial.EventsFired, serial.Wall, serial.EventsPerSec())
	t.Logf("sharded: events=%d wall=%v events/sec=%.0f shards=%d", sharded.EventsFired, sharded.Wall, sharded.EventsPerSec(), sharded.Shards)
	if shardedDigest != serialDigest {
		t.Fatalf("trace divergence: sharded digest %016x != serial %016x", shardedDigest, serialDigest)
	}
	if ratio := sharded.EventsPerSec() / serial.EventsPerSec(); ratio < floor {
		t.Fatalf("scale regression: sharded/serial events/sec ratio %.2f below floor %.2f", ratio, floor)
	}
}

// TestCityDeliveryExports pins the multi-gateway observability surface:
// the elected sinks match the configured count, and the delivery log is in its
// deterministic global order with every record naming a real sink.
func TestCityDeliveryExports(t *testing.T) {
	sim, err := New(Config{Nodes: 300, Seed: 1, Shards: 2, Sinks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	isSink := map[int]bool{}
	for i, is := range sim.nodes.isSink {
		if is {
			isSink[i] = true
		}
	}
	if len(isSink) != 2 {
		t.Fatalf("elected sinks = %v, want 2", isSink)
	}
	recs := sim.Deliveries()
	if uint64(len(recs)) != sim.Stats().Delivered {
		t.Fatalf("Deliveries len %d != Stats().Delivered %d", len(recs), sim.Stats().Delivered)
	}
	perSink := map[int]int{}
	for i, r := range recs {
		if !isSink[r.Sink] {
			t.Fatalf("delivery %d at non-sink node %d", i, r.Sink)
		}
		if r.At < r.Born {
			t.Fatalf("delivery %d arrives before it was born: %+v", i, r)
		}
		if i > 0 && recs[i-1].At > r.At {
			t.Fatalf("delivery log out of order at %d", i)
		}
		perSink[r.Sink]++
	}
	if len(perSink) != 2 {
		t.Errorf("all deliveries landed on one sink: %v", perSink)
	}
}

// TestCityStrategyAliasIdentity pins the proactive-untouched guarantee at
// the digest level: Strategy "" and "proactive" are the same run.
func TestCityStrategyAliasIdentity(t *testing.T) {
	base := Config{Nodes: 120, Seed: 5, Shards: 2, Sinks: 1}
	_, blank := runOnce(t, base, 6*time.Minute)
	named := base
	named.Strategy = "proactive"
	_, aliased := runOnce(t, named, 6*time.Minute)
	if blank != aliased {
		t.Fatalf("Strategy \"\" digest %016x != \"proactive\" %016x", blank, aliased)
	}
}

// TestCityStrategyValidation rejects unknown strategies and bad slot
// counts.
func TestCityStrategyValidation(t *testing.T) {
	if _, err := New(Config{Nodes: 10, Strategy: "flooding"}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	if _, err := New(Config{Nodes: 10, Strategy: "slotted", SlottedSlots: 65}); err == nil {
		t.Fatal("SlottedSlots 65 accepted")
	}
}

// TestCityStrategyDeterminism extends the serial-vs-sharded digest gate to
// every strategy mode: the strategy handlers must obey the same barrier
// discipline as the proactive engine.
func TestCityStrategyDeterminism(t *testing.T) {
	for _, strat := range []string{"reactive", "icn", "slotted"} {
		strat := strat
		t.Run(strat, func(t *testing.T) {
			base := Config{
				Nodes:         240,
				Seed:          9,
				Sinks:         2,
				Strategy:      strat,
				ShadowSigmaDB: 3,
			}
			const d = 8 * time.Minute
			serial, want := runOnce(t, base, d)
			for _, shards := range []int{2, 4} {
				cfg := base
				cfg.Shards = shards
				_, got := runOnce(t, cfg, d)
				if got != want {
					t.Errorf("shards=%d digest %016x, serial %016x", shards, got, want)
				}
			}
			if serial.FramesSent == 0 {
				t.Fatalf("no radio traffic: %+v", serial)
			}
		})
	}
}

// TestCityStrategyBehavior checks each mode's defining mechanism actually
// engages at city scale.
func TestCityStrategyBehavior(t *testing.T) {
	const d = 12 * time.Minute
	base := Config{Nodes: 240, Seed: 2, Shards: 2, Sinks: 2}

	t.Run("reactive", func(t *testing.T) {
		cfg := base
		cfg.Strategy = "reactive"
		st, _ := runOnce(t, cfg, d)
		if st.SolicitsSent == 0 {
			t.Fatalf("no solicits sent: %+v", st)
		}
		if st.Delivered == 0 {
			t.Fatalf("no deliveries under reactive mode: %+v", st)
		}
	})
	t.Run("icn", func(t *testing.T) {
		cfg := base
		cfg.Strategy = "icn"
		st, _ := runOnce(t, cfg, d)
		if st.InterestsSent == 0 || st.Delivered == 0 {
			t.Fatalf("icn never satisfied an interest: %+v", st)
		}
		if st.CacheHits == 0 {
			t.Fatalf("no cache hits across %d interests: %+v", st.Offered, st)
		}
		if st.InterestAggregated == 0 {
			t.Fatalf("no interest aggregation: %+v", st)
		}
	})
	t.Run("slotted", func(t *testing.T) {
		cfg := base
		cfg.Strategy = "slotted"
		st, _ := runOnce(t, cfg, d)
		if st.SlotDeferrals == 0 {
			t.Fatalf("slot gate never deferred: %+v", st)
		}
		if st.Delivered == 0 {
			t.Fatalf("no deliveries under slotted mode: %+v", st)
		}
		pro, _ := runOnce(t, base, d)
		if pro.Delivered == 0 {
			t.Fatalf("no proactive baseline deliveries: %+v", pro)
		}
	})
}
