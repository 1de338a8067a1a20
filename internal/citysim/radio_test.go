package citysim

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// inFlight returns every record in s's tx-indexes.
func inFlight(s *Sim) []airRec {
	if s.fullScan {
		return s.shards[0].flightAll
	}
	var recs []airRec
	for _, sh := range s.shards {
		for col := sh.c0; col <= sh.c1; col++ {
			for row := 0; row < s.grid.Rows(); row++ {
				recs = append(recs, sh.cellTx[row*s.grid.Cols()+col]...)
			}
		}
	}
	return recs
}

// probeFrames returns, for every record in s's tx-indexes, a data frame
// from every node over that record's span, addressed to no one: each
// overlaps at least one in-flight record, so the interference gate has
// work, and evaluating one runs no handler.
func probeFrames(s *Sim) []txRec {
	var frames []txRec
	for _, sp := range inFlight(s) {
		for i := int32(0); i < int32(s.r.Nodes); i++ {
			frames = append(frames, txRec{
				startNs: sp.startNs, endNs: sp.endNs, sender: i, dst: -1,
				seq: uint32(len(frames)), kind: kindData,
			})
		}
	}
	return frames
}

// hearAll decides tx on every shard with both hear and the reference and
// fails unless the merged receiver sets and loss buckets agree and every
// shard's candidate index is clean again. It returns hear's buckets.
func hearAll(t *testing.T, s *Sim, tx txRec) Stats {
	t.Helper()
	var got, want Stats
	var gotHeard, wantHeard []int32
	for _, sh := range s.shards {
		ref := &refShard{shard: sh}
		ref.evaluateTx(tx)
		want.merge(&ref.stats)
		wantHeard = append(wantHeard, ref.heard...)

		sh.stats = Stats{}
		gotHeard = append(gotHeard, sh.hear(&tx)...)
		got.merge(&sh.stats)
		if !s.fullScan && len(sh.candOf) != int(sh.hi-sh.lo) {
			t.Fatalf("shard %d: candOf has %d entries for stripe [%d, %d)", sh.id, len(sh.candOf), sh.lo, sh.hi)
		}
		if r := slices.IndexFunc(sh.candOf, func(j int32) bool { return j != -1 }); r >= 0 {
			t.Fatalf("frame %+v: shard %d left candOf for slot %d = %d", tx, sh.id, int(sh.lo)+r, sh.candOf[r])
		}
	}
	slices.Sort(gotHeard)
	slices.Sort(wantHeard)
	if got != want || !slices.Equal(gotHeard, wantHeard) {
		t.Fatalf("frame %+v:\n heard %v\n want  %v\n buckets %+v\n want    %+v", tx, gotHeard, wantHeard, got, want)
	}
	return got
}

// TestHearMatchesReference holds hear to the per-receiver reference
// (reference_test.go) over random cities in every strategy and execution
// mode: for every probe frame, the receivers that hear it and every loss
// bucket, summed over shards, are the same. A second pass clears every
// half-duplex history, so the interference gate also meets receivers'
// own transmissions.
func TestHearMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	var total Stats
	for _, strategy := range []string{"proactive", "reactive", "icn", "slotted"} {
		for _, shards := range []int{0, 1, 2, 4} {
			cfg := Config{
				Nodes:         150 + rng.Intn(451),
				Strategy:      strategy,
				Shards:        shards,
				Seed:          rng.Int63(),
				ShadowSigmaDB: 6 * rng.Float64(),
			}
			if rng.Intn(2) == 0 {
				cfg.ExtraFrameLossRate = 0.02
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Run(time.Duration(2+rng.Intn(5)) * time.Minute); err != nil {
				t.Fatal(err)
			}
			frames := probeFrames(s)
			sample := 1000
			if shards == 0 {
				sample = 250 // a full scan costs Nodes link computations a frame
			}
			rng.Shuffle(len(frames), func(i, j int) { frames[i], frames[j] = frames[j], frames[i] })
			frames = frames[:min(len(frames), sample)]
			if len(frames) == 0 {
				t.Fatalf("%+v: nothing on the air to probe", cfg)
			}
			for pass := 0; pass < 2; pass++ {
				for _, tx := range frames {
					got := hearAll(t, s, tx)
					if n := got.FramesDelivered + got.LostBelowSensitivity + got.LostHalfDuplex +
						got.LostCollision + got.LostRandom; n != uint64(cfg.Nodes-1) {
						t.Fatalf("%+v: frame %+v booked %d outcomes for %d receivers", cfg, tx, n, cfg.Nodes-1)
					}
					total.FramesDelivered += got.FramesDelivered
					total.LostHalfDuplex += got.LostHalfDuplex
					total.LostCollision += got.LostCollision
					total.LostRandom += got.LostRandom
				}
				clear(s.nodes.txHist)
			}
		}
	}
	if total.FramesDelivered == 0 || total.LostHalfDuplex == 0 || total.LostCollision == 0 || total.LostRandom == 0 {
		t.Fatalf("a gate never fired, the fence has no teeth there: %+v", total)
	}
	t.Logf("delivered %d, half-duplex %d, collision %d, random %d",
		total.FramesDelivered, total.LostHalfDuplex, total.LostCollision, total.LostRandom)
}

// FuzzHearMatchesReference searches for a frame hear and the reference
// decide differently, or after which a shard's candidate index is not
// clean. It builds one small city per execution mode, with shadowing and
// erasures, once per fuzz process; the input picks the mode, a sender, an
// in-flight record and where a frame of what length overlaps it. The
// seeds are probe frames: a record's exact span.
func FuzzHearMatchesReference(f *testing.F) {
	type city struct {
		s    *Sim
		recs []airRec
	}
	var cities []city
	for i, shards := range []int{0, 1, 2, 4} {
		s, err := New(Config{
			Nodes: 300, Strategy: "icn", Shards: shards, Seed: 11,
			ShadowSigmaDB: 4, ExtraFrameLossRate: 0.02,
		})
		if err != nil {
			f.Fatal(err)
		}
		if err := s.Run(3 * time.Minute); err != nil {
			f.Fatal(err)
		}
		recs := inFlight(s)
		if len(recs) == 0 {
			f.Fatalf("shards %d: nothing on the air", shards)
		}
		for _, k := range []int{0, len(recs) / 2, len(recs) - 1} {
			span := uint64(recs[k].endNs - recs[k].startNs)
			for _, sender := range []int32{recs[k].sender, int32(k) % int32(s.r.Nodes)} {
				f.Add(uint8(i), uint16(sender), uint16(k), span-1, span-1)
			}
		}
		cities = append(cities, city{s, recs})
	}
	f.Fuzz(func(t *testing.T, mode uint8, sender, rec uint16, offset, length uint64) {
		c := cities[int(mode)%len(cities)]
		s, sp := c.s, c.recs[int(rec)%len(c.recs)]
		// The frame lasts 1..maxAir ns and starts anywhere it overlaps sp.
		n := 1 + int64(length%uint64(s.r.maxAirNs))
		start := sp.startNs - n + 1 + int64(offset%uint64(sp.endNs-sp.startNs+n-1))
		hearAll(t, s, txRec{
			startNs: start, endNs: start + n, sender: int32(sender) % int32(s.r.Nodes),
			dst: -1, seq: uint32(offset), kind: kindData,
		})
	})
}

// TestSlabDecisionsMatchFloat64 holds the slab decision helpers to the
// float64 comparisons they stand for, on exact losses drawn within a few
// quantization steps of every threshold and band edge: delivers (hear's
// receivers and carrier sense) to loss <= maxLossDel, and captures to the
// capture test on a receiver's and an interferer's loss, the receiver's
// rssi taken from its code or from the exact loss. A helper may answer
// exact, so that linkLoss decides; any other answer must be the float64
// one. The codes' scale and the bounds are buildLinks' own, on a plain and
// a heavily shadowed city, and a draw no listed loss can take (beyond the
// least or the greatest) is skipped; each verdict must occur, so the draws
// reach both sides of every band.
func TestSlabDecisionsMatchFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for _, sigma := range []float64{0, 12} {
		s, err := New(Config{Nodes: 300, Shards: 1, Seed: 5, ShadowSigmaDB: sigma})
		if err != nil {
			t.Fatal(err)
		}
		r := &s.r
		m, e, floor, step := r.margins(), r.lossErr, r.noiseDBm-10, r.lossStep
		if e <= step/2 || step <= 0 {
			t.Fatalf("sigma %v: lossErr %v for a step of %v", sigma, e, step)
		}
		// near draws a float64 within 4 steps and 4 float64 ulps of x.
		near := func(x float64) float64 {
			ulp64 := math.Nextafter(x, math.Inf(1)) - x
			return x + (8*rng.Float64()-4)*step + float64(rng.Intn(9)-4)*ulp64
		}
		listable := func(loss float64) bool { return loss >= r.lossLo && loss <= r.lossLo+math.MaxUint16*step }
		slab := func(loss float64) float64 { return r.codeLoss(r.lossCode(loss)) }
		var seen [2][3]int
		for i := 0; i < 200000; i++ {
			del := r.maxLossDel + []float64{0, -e, e}[rng.Intn(3)]
			if l := near(del); listable(l) {
				v := m.delivers(slab(l))
				seen[0][v]++
				if v != exact && (v == yes) != (l <= r.maxLossDel) {
					t.Fatalf("sigma %v: delivers(%v) = %v, exact loss %v against %v", sigma, slab(l), v, l, r.maxLossDel)
				}
			}

			// An interferer near the floor or well above it, and a
			// receiver whose margin over it is near the capture threshold.
			li := near(r.eirpDBm - floor + []float64{0, -e, e, -20}[rng.Intn(4)])
			lc := near(li - r.captureThDB + []float64{0, -2 * e, 2 * e}[rng.Intn(3)])
			if !listable(li) || !listable(lc) {
				continue
			}
			rssi, irssi := r.eirpDBm-lc, r.eirpDBm-li
			want := irssi >= floor && rssi-irssi < r.captureThDB
			for _, c := range []float64{r.eirpDBm - slab(lc), rssi} {
				v := m.captures(c, r.eirpDBm-slab(li))
				seen[1][v]++
				if v != exact && (v == yes) != want {
					t.Fatalf("sigma %v: captures = %v on losses %v, %v (codes %d, %d); float64 says %v",
						sigma, v, lc, li, r.lossCode(lc), r.lossCode(li), want)
				}
			}
		}
		for k, helper := range []string{"delivers", "captures"} {
			if seen[k][no] == 0 || seen[k][yes] == 0 || seen[k][exact] == 0 {
				t.Errorf("sigma %v: %s answered no/yes/exact %v times: a draw misses a band", sigma, helper, seen[k])
			}
		}
		t.Logf("sigma %v: step %.3g dB, lossErr %.3g dB; delivers no/yes/exact %v, captures %v", sigma, step, e, seen[0], seen[1])
	}
}

// BenchmarkEvaluateTx times one reception evaluation on a 2 000-node city
// (the field grows with Nodes, so its density is the bench's) after ten
// virtual minutes, against that run's in-flight records, under the
// proactive strategy and under ICN, where interferers pile up. Every probe
// frame is a data frame addressed to no one, so no handler runs and every
// iteration sees the same state.
func BenchmarkEvaluateTx(b *testing.B) {
	for _, strategy := range []string{"proactive", "icn"} {
		b.Run(strategy, func(b *testing.B) {
			s, err := New(Config{Nodes: 2000, Strategy: strategy, Shards: 1, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Run(10 * time.Minute); err != nil {
				b.Fatal(err)
			}
			frames := probeFrames(s)
			sh := s.shards[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sh.evaluateTx(frames[i%len(frames)])
			}
		})
	}
}
