package citysim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"
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
// telemetry to its one sink within a few hello periods.
func TestCityBasics(t *testing.T) {
	cfg := Config{Nodes: 150, Seed: 1, Shards: 2}
	st, _ := runOnce(t, cfg, 10*time.Minute)
	if st.Sinks != 1 {
		t.Fatalf("elected %d sinks below %d nodes, want 1", st.Sinks, nodesPerSink)
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
	// Each shard is busy at most the whole run, and the caller waits at
	// most the whole run.
	if st.ShardBusy <= 0 || st.ShardBusy > time.Duration(st.Shards)*st.Wall || st.BarrierWait > st.Wall {
		t.Fatalf("shard busy %v, barrier wait %v over %d shards and wall %v", st.ShardBusy, st.BarrierWait, st.Shards, st.Wall)
	}
}

// TestStateBytesCountsEverySlab grows each nodeState slab, then each
// shard's packet slab and candidate index, by one element: StateBytes must
// grow by exactly that element's size, so no slab is left out or counted
// at the wrong width.
func TestStateBytesCountsEverySlab(t *testing.T) {
	s, err := New(Config{Nodes: 200, Shards: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	slabs := reflect.ValueOf(&s.nodes).Elem()
	for i := 0; i < slabs.NumField(); i++ {
		f := slabs.Field(i)
		f = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem() // settable
		kept, before := f.Interface(), s.stateBytes()
		f.Set(reflect.Append(f, reflect.Zero(f.Type().Elem())))
		if got, want := s.stateBytes()-before, f.Type().Elem().Size(); got != uint64(want) {
			t.Errorf("one more %s element adds %d state bytes, want %d", slabs.Type().Field(i).Name, got, want)
		}
		f.Set(reflect.ValueOf(kept))
	}
	for _, sh := range s.shards {
		before := s.stateBytes()
		sh.pkts = make([]pkt, len(sh.pkts), cap(sh.pkts)+1)
		if got, want := s.stateBytes()-before, reflect.TypeOf(pkt{}).Size(); got != uint64(want) {
			t.Errorf("one more pkt slot adds %d state bytes, want %d", got, want)
		}
		before = s.stateBytes()
		sh.candOf = append(sh.candOf, -1)
		if got, want := s.stateBytes()-before, reflect.TypeOf(int32(0)).Size(); got != uint64(want) {
			t.Errorf("one more candOf entry adds %d state bytes, want %d", got, want)
		}
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
// and erasures switched on, on one processor and on two: on one, a polling
// wait must hand the processor to the shard it waits for. The last case
// is sized from nodesPerSink so the shipped ratio elects two sinks:
// cross-shard deliveries to different sinks must merge into the same
// delivery order. GOMAXPROCS is process-wide, so no test here runs in
// parallel.
func TestCityDeterminism(t *testing.T) {
	cases := []struct {
		name  string
		nodes int
		seed  int64
		d     time.Duration
		sinks int
	}{
		{"seed1", 240, 1, 8 * time.Minute, 1},
		{"seed7", 240, 7, 8 * time.Minute, 1},
		{"seed42", 240, 42, 8 * time.Minute, 1},
		{"twosinks", 2 * nodesPerSink, 7, 2 * time.Minute, 2},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			base := Config{
				Nodes:              tc.nodes,
				Seed:               tc.seed,
				ShadowSigmaDB:      4,
				ExtraFrameLossRate: 0.02,
			}
			serial, want := runOnce(t, base, tc.d)
			if serial.Shards != 1 {
				t.Fatalf("serial mode ran %d shards", serial.Shards)
			}
			if serial.Sinks != tc.sinks || serial.Delivered == 0 {
				t.Fatalf("want deliveries at %d sinks, got %+v", tc.sinks, serial)
			}
			prev := runtime.GOMAXPROCS(0)
			t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
			for _, procs := range []int{1, 2} {
				runtime.GOMAXPROCS(procs)
				for _, shards := range []int{1, 2, 4} {
					cfg := base
					cfg.Shards = shards
					st, got := runOnce(t, cfg, tc.d)
					if got != want {
						t.Errorf("procs=%d shards=%d digest %016x, serial %016x (stats %+v vs %+v)",
							procs, shards, got, want, st, serial)
					}
					if st.Windows != serial.Windows || st.FastForwards != serial.FastForwards {
						t.Errorf("procs=%d shards=%d window sequence diverged: %d/%d vs serial %d/%d",
							procs, shards, st.Windows, st.FastForwards, serial.Windows, serial.FastForwards)
					}
				}
			}
		})
	}
}

// TestAwait pins the barrier's wait: with a budget that parks at once, one
// that runs out before the second send, and one that outlasts it, both
// values and then the close reach the receiver in order.
func TestAwait(t *testing.T) {
	for _, budget := range []time.Duration{0, time.Millisecond, time.Hour} {
		ch := make(chan int, 1)
		go func() {
			ch <- 1
			time.Sleep(5 * time.Millisecond)
			ch <- 2
			close(ch)
		}()
		for _, want := range []int{1, 2} {
			if v, ok := await(ch, budget); !ok || v != want {
				t.Fatalf("budget %v: got %d, %v; want %d", budget, v, ok, want)
			}
		}
		if _, ok := await(ch, budget); ok {
			t.Fatalf("budget %v: closed channel still open", budget)
		}
	}
}

// BenchmarkCityRun times the window loop at one and two shards on a
// 2 000-node city over two virtual minutes; -cpu 1,2 shows what the
// second processor buys.
func BenchmarkCityRun(b *testing.B) {
	for _, shards := range []int{1, 2} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var frames uint64
			var wall time.Duration
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sim, err := New(Config{Nodes: 2000, Shards: shards, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := sim.Run(2 * time.Minute); err != nil {
					b.Fatal(err)
				}
				st := sim.Stats()
				frames += st.FramesSent
				wall += st.Wall
			}
			b.ReportMetric(float64(frames)/wall.Seconds(), "frames/s")
		})
	}
}

// TestCityShardBarrierRace exercises the multi-goroutine barrier under the
// race detector (scripts/check.sh runs this package with -race): a real
// multi-shard run with enough traffic that every phase and the pruning
// path execute concurrently.
func TestCityShardBarrierRace(t *testing.T) {
	cfg := Config{Nodes: 400, Seed: 3, Shards: 4, ShadowSigmaDB: 3}
	st, _ := runOnce(t, cfg, 6*time.Minute)
	if st.Shards < 2 {
		t.Fatalf("wanted a multi-shard run, got %d shards", st.Shards)
	}
	if st.FramesDelivered == 0 {
		t.Fatalf("no deliveries: %+v", st)
	}
}

// TestCityDeliveryExports pins the multi-gateway observability surface:
// a field of 2*nodesPerSink nodes elects two sinks, and the delivery log is
// in its deterministic global order with every record naming a real sink.
func TestCityDeliveryExports(t *testing.T) {
	sim, err := New(Config{Nodes: 2 * nodesPerSink, Seed: 1, Shards: 2})
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
	base := Config{Nodes: 120, Seed: 5, Shards: 2}
	_, blank := runOnce(t, base, 6*time.Minute)
	named := base
	named.Strategy = "proactive"
	_, aliased := runOnce(t, named, 6*time.Minute)
	if blank != aliased {
		t.Fatalf("Strategy \"\" digest %016x != \"proactive\" %016x", blank, aliased)
	}
}

// TestCityStrategyValidation rejects unknown strategies.
func TestCityStrategyValidation(t *testing.T) {
	if _, err := New(Config{Nodes: 10, Strategy: "flooding"}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

// TestCityStrategyDeterminism extends the serial-vs-sharded digest gate to
// every strategy mode: the strategy handlers must obey the same barrier
// discipline as the proactive engine. The last case runs one mode at
// 2*nodesPerSink nodes, where the shipped ratio elects two sinks.
func TestCityStrategyDeterminism(t *testing.T) {
	cases := []struct {
		name  string
		strat string
		nodes int
		d     time.Duration
		sinks int
	}{
		{"reactive", "reactive", 240, 8 * time.Minute, 1},
		{"icn", "icn", 240, 8 * time.Minute, 1},
		{"slotted", "slotted", 240, 8 * time.Minute, 1},
		{"icn-twosinks", "icn", 2 * nodesPerSink, 3 * time.Minute, 2},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			base := Config{
				Nodes:         tc.nodes,
				Seed:          9,
				Strategy:      tc.strat,
				ShadowSigmaDB: 3,
			}
			serial, want := runOnce(t, base, tc.d)
			for _, shards := range []int{2, 4} {
				cfg := base
				cfg.Shards = shards
				_, got := runOnce(t, cfg, tc.d)
				if got != want {
					t.Errorf("shards=%d digest %016x, serial %016x", shards, got, want)
				}
			}
			if serial.FramesSent == 0 {
				t.Fatalf("no radio traffic: %+v", serial)
			}
			if serial.Sinks != tc.sinks {
				t.Fatalf("elected %d sinks, want %d", serial.Sinks, tc.sinks)
			}
		})
	}
}

// TestCityStrategyBehavior checks each mode's defining mechanism actually
// engages at city scale.
func TestCityStrategyBehavior(t *testing.T) {
	const d = 12 * time.Minute
	base := Config{Nodes: 240, Seed: 2, Shards: 2}

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
