package citysim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"repro/internal/geo"
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

// TestStateBytesCountsEverySlab grows the capacity of each nodeState slab
// (the id slab among them), then of each shard's packet slab and candidate
// index, by one element: StateBytes must grow by exactly that element's
// size, so no slab is left out or counted at the wrong width. New leaves
// no spare capacity in a nodeState slab, so counting what is resident
// counts what is used. A candidate index spans its stripe, not the city.
func TestStateBytesCountsEverySlab(t *testing.T) {
	s, err := New(Config{Nodes: 200, Shards: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	slabs := reflect.ValueOf(&s.nodes).Elem()
	for i := 0; i < slabs.NumField(); i++ {
		f := slabs.Field(i)
		f = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem() // settable
		if f.Cap() != f.Len() {
			t.Errorf("%s: New leaves capacity %d for %d elements", slabs.Type().Field(i).Name, f.Cap(), f.Len())
		}
		kept, before := f.Interface(), s.stateBytes()
		f.Set(reflect.MakeSlice(f.Type(), f.Len(), f.Cap()+1))
		if got, want := s.stateBytes()-before, f.Type().Elem().Size(); got != uint64(want) {
			t.Errorf("one more %s element adds %d state bytes, want %d", slabs.Type().Field(i).Name, got, want)
		}
		f.Set(reflect.ValueOf(kept))
	}
	for _, sh := range s.shards {
		if len(sh.candOf) != int(sh.hi-sh.lo) {
			t.Errorf("shard %d: candOf has %d entries for the %d nodes of its stripe", sh.id, len(sh.candOf), sh.hi-sh.lo)
		}
		before := s.stateBytes()
		sh.pkts = make([]pkt, len(sh.pkts), cap(sh.pkts)+1)
		if got, want := s.stateBytes()-before, reflect.TypeOf(pkt{}).Size(); got != uint64(want) {
			t.Errorf("one more pkt slot adds %d state bytes, want %d", got, want)
		}
		before = s.stateBytes()
		sh.candOf = make([]int32, len(sh.candOf), cap(sh.candOf)+1)
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
// delivery order. GOMAXPROCS is process-wide, so no top-level test here
// runs in parallel.
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

// TestCityDigestsPinned holds every strategy's digest, plain and with
// shadowing and erasures, in the serial reference and at two shards, to
// constants computed before node state was stored in space order. The
// mode-against-mode gates above compare runs that share one storage
// order, so they cannot see a slot leaking where an id is model material
// (a shadow or erasure key, a delivery's sink); these constants can. Two
// sinks, so the delivery log merges arrivals at both. The serial runs
// dominate the cost, so the cases run in parallel.
func TestCityDigestsPinned(t *testing.T) {
	pinned := map[string]uint64{
		"proactive/plain": 0x52232d4e6244f06a,
		"proactive/noisy": 0x44354736efd454df,
		"reactive/plain":  0x23e01c1f6754fb98,
		"reactive/noisy":  0x00ccc0b9115f820e,
		"icn/plain":       0xfc835e330dcbf70a,
		"icn/noisy":       0xa3ad6946d8bb2c8a,
		"slotted/plain":   0x952554be90b2430d,
		"slotted/noisy":   0xf8a8a7e68d536a7b,
	}
	for _, strategy := range []string{"proactive", "reactive", "icn", "slotted"} {
		for _, noise := range []string{"plain", "noisy"} {
			for _, shards := range []int{0, 2} {
				name := strategy + "/" + noise
				cfg := Config{Nodes: 2 * nodesPerSink, Seed: 3, Strategy: strategy, Shards: shards}
				if noise == "noisy" {
					cfg.ShadowSigmaDB, cfg.ExtraFrameLossRate = 4, 0.02
				}
				t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
					t.Parallel()
					st, got := runOnce(t, cfg, 6*time.Minute)
					if st.Sinks != 2 {
						t.Fatalf("elected %d sinks, want 2", st.Sinks)
					}
					if want := pinned[name]; got != want {
						t.Errorf("digest %016x, pinned %016x", got, want)
					}
				})
			}
		}
	}
}

// TestSpaceOrder checks the storage order over random cities: id is a
// permutation and slots ascend by (cell column, cell row, id); each
// shard's nodes are exactly its slot range, and the ranges tile the city;
// and every node's link slab, read back through id, lists the neighbours a
// scan of all pairs finds (3x3-adjacent cells, refLinkLoss within
// maxLossRel), ascending, with bit-identical losses and symmetrically —
// as built, and again with one pair pinned to the edge of reach.
func TestSpaceOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, shards := range []int{1, 2, 4} {
		cfg := Config{Nodes: 150 + rng.Intn(451), Shards: shards, Seed: rng.Int63(), ShadowSigmaDB: float64(rng.Intn(121)) / 10}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		topo, err := geo.RandomGeometric(cfg.Nodes, s.r.field, s.r.field, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		ns, n := &s.nodes, int32(cfg.Nodes)
		colRow := func(i int32) (int, int) { return s.grid.ColRow(int(ns.cell[i])) }
		slotOf := make([]int32, n)
		seen := make([]bool, n)
		for i := int32(0); i < n; i++ {
			id := ns.id[i]
			if id < 0 || id >= n || seen[id] {
				t.Fatalf("%+v: id is not a permutation at slot %d (id %d)", cfg, i, id)
			}
			seen[id], slotOf[id] = true, i
			if p := topo.Positions[id]; ns.x[i] != p.X || ns.y[i] != p.Y || ns.cell[i] != int32(s.grid.CellOf(p)) {
				t.Fatalf("%+v: slot %d does not hold node %d's placement", cfg, i, id)
			}
			if i > 0 {
				c0, r0 := colRow(i - 1)
				c1, r1 := colRow(i)
				if c0 > c1 || c0 == c1 && (r0 > r1 || r0 == r1 && ns.id[i-1] > id) {
					t.Fatalf("%+v: slots %d and %d out of (column, row, id) order", cfg, i-1, i)
				}
			}
		}
		if s.shards[0].lo != 0 || s.shards[len(s.shards)-1].hi != n {
			t.Fatalf("%+v: shard ranges do not span [0, %d)", cfg, n)
		}
		for k, sh := range s.shards {
			if k > 0 && sh.lo != s.shards[k-1].hi {
				t.Fatalf("%+v: shard %d starts at %d, shard %d ends at %d", cfg, k, sh.lo, k-1, s.shards[k-1].hi)
			}
			for i := int32(0); i < n; i++ {
				if col, _ := colRow(i); (col >= sh.c0 && col <= sh.c1) != sh.owns(i) {
					t.Fatalf("%+v: shard %d (columns %d..%d, slots [%d, %d)) disagrees on slot %d in column %d",
						cfg, k, sh.c0, sh.c1, sh.lo, sh.hi, i, col)
				}
			}
		}
		allPairs := func(label string) {
			links := 0
			for a := int32(0); a < n; a++ {
				i := slotOf[a]
				ca, ra := colRow(i)
				var want []int32
				for b := int32(0); b < n; b++ {
					j := slotOf[b]
					if cb, rb := colRow(j); b != a && abs(ca-cb) <= 1 && abs(ra-rb) <= 1 && refLinkLoss(s, i, j) <= s.r.maxLossRel {
						want = append(want, j)
					}
				}
				slices.Sort(want)
				got := ns.nbrSlot[ns.nbrOff[i]:ns.nbrOff[i+1]]
				if !slices.Equal(got, want) {
					t.Fatalf("%+v %s: node %d lists %v, all pairs give %v", cfg, label, a, got, want)
				}
				for k, j := range got {
					want := refLinkLoss(s, i, j)
					if loss := ns.nbrLoss[int(ns.nbrOff[i])+k]; math.Float64bits(loss) != math.Float64bits(want) {
						t.Fatalf("%+v %s: link (%d, %d) loss %v, oracle %v", cfg, label, a, ns.id[j], loss, want)
					}
					if back, ok := s.lossBetween(j, i); !ok || math.Float64bits(back) != math.Float64bits(want) {
						t.Fatalf("%+v %s: link (%d, %d) is not symmetric", cfg, label, a, ns.id[j])
					}
				}
				links += len(got)
			}
			if links == 0 {
				t.Fatalf("%+v %s: no links", cfg, label)
			}
		}
		allPairs("as built")
		if !pinEdgePair(s) {
			t.Fatalf("%+v: no pair to pin", cfg)
		}
		allPairs("with an edge pair")
	}
}

func abs(v int) int { return max(v, -v) }

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
	isSink := map[int]bool{} // by id, as Deliveries names nodes
	for i, is := range sim.nodes.isSink {
		if is {
			isSink[int(sim.nodes.id[i])] = true
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
