package airmedium

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/loraphy"
	"repro/internal/simtime"
)

var t0 = time.Date(2022, 7, 1, 0, 0, 0, 0, time.UTC)

// collector records deliveries and TX completions for a test station.
type collector struct {
	frames  []Delivery
	txDones []time.Time
}

func (c *collector) OnFrame(d Delivery)    { c.frames = append(c.frames, d) }
func (c *collector) OnTxDone(at time.Time) { c.txDones = append(c.txDones, at) }

var (
	_ Receiver   = (*collector)(nil)
	_ TxObserver = (*collector)(nil)
)

type fixture struct {
	sched  *simtime.Scheduler
	medium *Medium
	rx     []*collector
	ids    []StationID
}

func newFixture(t *testing.T, cfg Config, positions []geo.Point) *fixture {
	t.Helper()
	sched := simtime.NewScheduler(t0)
	m, err := New(sched, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{sched: sched, medium: m}
	for _, p := range positions {
		c := &collector{}
		id, err := m.AddStation(p, c)
		if err != nil {
			t.Fatal(err)
		}
		f.rx = append(f.rx, c)
		f.ids = append(f.ids, id)
	}
	return f
}

func (f *fixture) transmit(t *testing.T, from int, data []byte) time.Duration {
	t.Helper()
	d, err := f.medium.Transmit(f.ids[from], data, loraphy.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDeliveryInRange(t *testing.T) {
	f := newFixture(t, Config{}, []geo.Point{{X: 0}, {X: 200}})
	air := f.transmit(t, 0, []byte("ping"))
	f.sched.Run(0)

	if len(f.rx[1].frames) != 1 {
		t.Fatalf("receiver got %d frames, want 1", len(f.rx[1].frames))
	}
	d := f.rx[1].frames[0]
	if string(d.Data) != "ping" || d.From != f.ids[0] {
		t.Errorf("delivery = %+v", d)
	}
	if want := t0.Add(air); !d.At.Equal(want) {
		t.Errorf("delivered at %v, want end of airtime %v", d.At, want)
	}
	if len(f.rx[0].txDones) != 1 {
		t.Errorf("sender got %d TxDone, want 1", len(f.rx[0].txDones))
	}
	if len(f.rx[0].frames) != 0 {
		t.Errorf("sender received its own frame")
	}
	st := f.medium.Stats()
	if st.FramesSent != 1 || st.FramesDelivered != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestOutOfRangeLost(t *testing.T) {
	// At n=2.7 / 14 dBm / SF7, range is a few km; 100 km is far out.
	f := newFixture(t, Config{}, []geo.Point{{X: 0}, {X: 100e3}})
	f.transmit(t, 0, []byte("x"))
	f.sched.Run(0)
	if len(f.rx[1].frames) != 0 {
		t.Fatal("frame delivered far beyond sensitivity range")
	}
	if st := f.medium.Stats(); st.LostBelowSensitivity != 1 {
		t.Errorf("stats = %+v, want LostBelowSensitivity=1", st)
	}
}

func TestBroadcastReachesAllListeners(t *testing.T) {
	f := newFixture(t, Config{}, []geo.Point{{X: 0}, {X: 100}, {X: 200}, {Y: 150}})
	f.transmit(t, 0, []byte("all"))
	f.sched.Run(0)
	for i := 1; i < 4; i++ {
		if len(f.rx[i].frames) != 1 {
			t.Errorf("station %d got %d frames, want 1", i, len(f.rx[i].frames))
		}
	}
}

func TestNotListeningMissesFrame(t *testing.T) {
	f := newFixture(t, Config{}, []geo.Point{{X: 0}, {X: 100}})
	if err := f.medium.SetListening(f.ids[1], false); err != nil {
		t.Fatal(err)
	}
	f.transmit(t, 0, []byte("x"))
	f.sched.Run(0)
	if len(f.rx[1].frames) != 0 {
		t.Fatal("sleeping receiver got a frame")
	}
	if st := f.medium.Stats(); st.LostNotListening != 1 {
		t.Errorf("stats = %+v, want LostNotListening=1", st)
	}
}

func TestHalfDuplexSelfBlindness(t *testing.T) {
	// Stations 0 and 1 transmit simultaneously; both are deaf to each
	// other, but distant station 2 hears neither (collision) or one
	// (capture). Here 0 and 1 are equidistant from 2 so same-SF capture
	// fails and 2 hears nothing.
	f := newFixture(t, Config{}, []geo.Point{{X: -100}, {X: 100}, {Y: 100}})
	f.transmit(t, 0, []byte("a"))
	f.transmit(t, 1, []byte("b"))
	f.sched.Run(0)
	if len(f.rx[0].frames)+len(f.rx[1].frames) != 0 {
		t.Error("half-duplex station received while transmitting")
	}
	if len(f.rx[2].frames) != 0 {
		t.Error("equal-power same-SF collision should destroy both frames")
	}
	st := f.medium.Stats()
	if st.LostHalfDuplex != 2 {
		t.Errorf("LostHalfDuplex = %d, want 2", st.LostHalfDuplex)
	}
	if st.LostCollision != 2 {
		t.Errorf("LostCollision = %d, want 2", st.LostCollision)
	}
}

func TestCaptureStrongerFrameSurvives(t *testing.T) {
	// Receiver at origin; station 1 very close (strong), station 2 far
	// (weak, but still above sensitivity). Same SF: the strong frame
	// survives, the weak one dies.
	f := newFixture(t, Config{}, []geo.Point{{}, {X: 50}, {X: 2000}})
	f.transmit(t, 1, []byte("strong"))
	f.transmit(t, 2, []byte("weak"))
	f.sched.Run(0)
	if len(f.rx[0].frames) != 1 || string(f.rx[0].frames[0].Data) != "strong" {
		t.Fatalf("receiver frames = %+v, want only the strong frame", f.rx[0].frames)
	}
}

func TestInterSFQuasiOrthogonalBothSurvive(t *testing.T) {
	// Two same-power transmissions at different SFs both decode thanks to
	// quasi-orthogonality.
	sched := simtime.NewScheduler(t0)
	m, err := New(sched, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rx := &collector{}
	if _, err := m.AddStation(geo.Point{}, rx); err != nil {
		t.Fatal(err)
	}
	c1, c2 := &collector{}, &collector{}
	id1, err := m.AddStation(geo.Point{X: 100}, c1)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := m.AddStation(geo.Point{X: -100}, c2)
	if err != nil {
		t.Fatal(err)
	}
	p7 := loraphy.DefaultParams()
	p8 := loraphy.DefaultParams()
	p8.SpreadingFactor = loraphy.SF8
	if _, err := m.Transmit(id1, []byte("sf7"), p7); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Transmit(id2, []byte("sf8"), p8); err != nil {
		t.Fatal(err)
	}
	sched.Run(0)
	if len(rx.frames) != 2 {
		t.Fatalf("receiver got %d frames, want both (inter-SF orthogonality)", len(rx.frames))
	}
}

func TestDifferentFrequenciesDoNotInteract(t *testing.T) {
	sched := simtime.NewScheduler(t0)
	m, err := New(sched, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rx := &collector{}
	if _, err := m.AddStation(geo.Point{}, rx); err != nil {
		t.Fatal(err)
	}
	c1, c2 := &collector{}, &collector{}
	id1, _ := m.AddStation(geo.Point{X: 100}, c1)
	id2, _ := m.AddStation(geo.Point{X: -100}, c2)
	pA := loraphy.DefaultParams()
	pB := loraphy.DefaultParams()
	pB.FrequencyHz = 868.3e6
	if _, err := m.Transmit(id1, []byte("chA"), pA); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Transmit(id2, []byte("chB"), pB); err != nil {
		t.Fatal(err)
	}
	sched.Run(0)
	if len(rx.frames) != 2 {
		t.Fatalf("receiver got %d frames, want 2 (separate channels)", len(rx.frames))
	}
}

func TestDoubleTransmitRejected(t *testing.T) {
	f := newFixture(t, Config{}, []geo.Point{{}, {X: 100}})
	f.transmit(t, 0, []byte("first"))
	if _, err := f.medium.Transmit(f.ids[0], []byte("second"), loraphy.DefaultParams()); err == nil {
		t.Fatal("overlapping transmit from one station: want error")
	}
	f.sched.Run(0)
	// After the first frame ends, transmitting again works.
	if _, err := f.medium.Transmit(f.ids[0], []byte("third"), loraphy.DefaultParams()); err != nil {
		t.Fatalf("transmit after TX done: %v", err)
	}
}

func TestRemoveStation(t *testing.T) {
	f := newFixture(t, Config{}, []geo.Point{{}, {X: 100}})
	if err := f.medium.Remove(f.ids[1]); err != nil {
		t.Fatal(err)
	}
	f.transmit(t, 0, []byte("x"))
	f.sched.Run(0)
	if len(f.rx[1].frames) != 0 {
		t.Error("removed station received a frame")
	}
	if _, err := f.medium.Transmit(f.ids[1], []byte("y"), loraphy.DefaultParams()); err == nil {
		t.Error("removed station transmitted")
	}
}

func TestExtraFrameLossRate(t *testing.T) {
	f := newFixture(t, Config{ExtraFrameLossRate: 0.5, Seed: 1}, []geo.Point{{}, {X: 100}})
	sent := 400
	for i := 0; i < sent; i++ {
		f.transmit(t, 0, []byte("x"))
		f.sched.Run(0)
	}
	got := len(f.rx[1].frames)
	if got < sent/2-60 || got > sent/2+60 {
		t.Errorf("delivered %d of %d at 50%% loss, want ≈%d", got, sent, sent/2)
	}
	if st := f.medium.Stats(); st.LostRandom != uint64(sent-got) {
		t.Errorf("LostRandom = %d, want %d", st.LostRandom, sent-got)
	}
}

func TestExtraFrameLossValidation(t *testing.T) {
	sched := simtime.NewScheduler(t0)
	if _, err := New(sched, Config{ExtraFrameLossRate: 1.5}); err == nil {
		t.Error("loss rate 1.5: want error")
	}
	if _, err := New(nil, Config{}); err == nil {
		t.Error("nil scheduler: want error")
	}
}

func TestBusy(t *testing.T) {
	f := newFixture(t, Config{}, []geo.Point{{}, {X: 100}})
	freq := loraphy.DefaultParams().FrequencyHz
	busy, err := f.medium.Busy(f.ids[1], freq)
	if err != nil {
		t.Fatal(err)
	}
	if busy {
		t.Error("idle channel reported busy")
	}
	f.transmit(t, 0, []byte("x"))
	// Mid-frame, the channel is busy at station 1 but not on another band.
	f.sched.MustAfter(5*time.Millisecond, func() {
		busy, err := f.medium.Busy(f.ids[1], freq)
		if err != nil {
			t.Error(err)
		}
		if !busy {
			t.Error("mid-frame channel reported idle")
		}
		other, err := f.medium.Busy(f.ids[1], 869.5e6)
		if err != nil {
			t.Error(err)
		}
		if other {
			t.Error("other band reported busy")
		}
	})
	f.sched.Run(0)
	busy, err = f.medium.Busy(f.ids[1], freq)
	if err != nil {
		t.Fatal(err)
	}
	if busy {
		t.Error("channel busy after frame ended")
	}
}

func TestShadowingChangesOutcomes(t *testing.T) {
	// With heavy shadowing, a marginal link flips depending on seed —
	// check determinism per seed and divergence across seeds over many
	// independent links.
	outcomes := func(seed int64) []bool {
		sched := simtime.NewScheduler(t0)
		m, err := New(sched, Config{ShadowSigmaDB: 12, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var res []bool
		for i := 0; i < 30; i++ {
			rx := &collector{}
			a, _ := m.AddStation(geo.Point{Y: float64(i * 10)}, &collector{})
			b, _ := m.AddStation(geo.Point{Y: float64(i * 10), X: 3000}, rx)
			if _, err := m.Transmit(a, []byte("x"), loraphy.DefaultParams()); err != nil {
				t.Fatal(err)
			}
			sched.Run(0)
			res = append(res, len(rx.frames) == 1)
			_ = b
		}
		return res
	}
	a1, a2, b := outcomes(1), outcomes(1), outcomes(2)
	diff12, diffB := 0, 0
	for i := range a1 {
		if a1[i] != a2[i] {
			diff12++
		}
		if a1[i] != b[i] {
			diffB++
		}
	}
	if diff12 != 0 {
		t.Errorf("same seed diverged on %d links", diff12)
	}
	if diffB == 0 {
		t.Error("different seeds produced identical marginal-link outcomes")
	}
}

func TestStationAirtimeAccounting(t *testing.T) {
	f := newFixture(t, Config{}, []geo.Point{{}, {X: 100}})
	air := f.transmit(t, 0, make([]byte, 50))
	f.sched.Run(0)
	got, err := f.medium.StationAirtime(f.ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if got != air {
		t.Errorf("airtime = %v, want %v", got, air)
	}
	if other, _ := f.medium.StationAirtime(f.ids[1]); other != 0 {
		t.Errorf("receiver airtime = %v, want 0", other)
	}
}

func TestUnknownStationErrors(t *testing.T) {
	f := newFixture(t, Config{}, []geo.Point{{}})
	if _, err := f.medium.Transmit(StationID(9), nil, loraphy.DefaultParams()); err == nil {
		t.Error("unknown station Transmit: want error")
	}
	if err := f.medium.SetListening(StationID(-1), true); err == nil {
		t.Error("negative station: want error")
	}
	if _, err := f.medium.Busy(StationID(5), 868.1e6); err == nil {
		t.Error("unknown station Busy: want error")
	}
}

func TestSoftDecodingRegion(t *testing.T) {
	// Place the receiver so the link closes with only ~1 dB of SNR
	// margin: with soft decoding a large fraction of frames is lost;
	// with the hard threshold none are.
	run := func(width float64) int {
		sched := simtime.NewScheduler(t0)
		m, err := New(sched, Config{SoftDecodingWidthDB: width, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		rx := &collector{}
		// SF7 SNR floor is -7.5 dB; find a distance giving ≈ -6.5 dB SNR.
		// Budget: 14+4.3 dBm, noise floor ≈ -117.1: RSSI ≈ -123.6 needed,
		// so path loss ≈ 141.9 dB → ≈ 12 km at n=2.7.
		a, _ := m.AddStation(geo.Point{}, &collector{})
		b, _ := m.AddStation(geo.Point{X: 11900}, rx)
		sent := 300
		for i := 0; i < sent; i++ {
			if _, err := m.Transmit(a, []byte("x"), loraphy.DefaultParams()); err != nil {
				t.Fatal(err)
			}
			sched.Run(0)
		}
		_ = b
		return len(rx.frames)
	}
	hard := run(0)
	soft := run(3)
	if hard != 300 {
		t.Fatalf("hard threshold delivered %d/300 on a just-closing link", hard)
	}
	if soft >= 290 || soft == 0 {
		t.Errorf("soft decoding delivered %d/300, want partial loss on a marginal link", soft)
	}
}

func TestLinkBlocking(t *testing.T) {
	f := newFixture(t, Config{}, []geo.Point{{}, {X: 100}, {X: 200}})
	if err := f.medium.SetLinkBlocked(f.ids[0], f.ids[1], true); err != nil {
		t.Fatal(err)
	}
	f.transmit(t, 0, []byte("x"))
	f.sched.Run(0)
	if len(f.rx[1].frames) != 0 {
		t.Error("blocked link delivered a frame")
	}
	if len(f.rx[2].frames) != 1 {
		t.Error("unblocked link did not deliver")
	}
	// Blocking is symmetric.
	f.transmit(t, 1, []byte("y"))
	f.sched.Run(0)
	if len(f.rx[0].frames) != 0 {
		t.Error("reverse direction of blocked link delivered")
	}
	// Blocked links pass no interference either: 0 and 1 transmit
	// together; 2 hears both, but 1's frame is blocked toward... check
	// via Busy: station 1 senses nothing from 0.
	f.transmit(t, 0, []byte("z"))
	f.sched.MustAfter(time.Millisecond, func() {
		busy, err := f.medium.Busy(f.ids[1], loraphy.DefaultParams().FrequencyHz)
		if err != nil {
			t.Error(err)
		}
		if busy {
			t.Error("blocked link leaks carrier sense")
		}
	})
	f.sched.Run(0)
	// Healing restores delivery.
	if err := f.medium.SetLinkBlocked(f.ids[0], f.ids[1], false); err != nil {
		t.Fatal(err)
	}
	f.transmit(t, 0, []byte("w"))
	f.sched.Run(0)
	if len(f.rx[1].frames) != 1 {
		t.Error("healed link did not deliver")
	}
	// Unknown stations error.
	if err := f.medium.SetLinkBlocked(StationID(9), f.ids[0], true); err == nil {
		t.Error("unknown station: want error")
	}
}

// TestLossBucketConservation is a seeded property case over random fields
// with moves, removals, sleep and blocked links interleaved with traffic:
// for every transmission, the six receiver-outcome counters together grow
// by exactly the number of other non-removed stations — each potential
// receiver lands in exactly one bucket.
func TestLossBucketConservation(t *testing.T) {
	outcomes := func(st Stats) uint64 {
		return st.FramesDelivered + st.LostBelowSensitivity + st.LostCollision +
			st.LostHalfDuplex + st.LostRandom + st.LostNotListening
	}
	p := loraphy.DefaultParams()
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(30)
		field := 2000 + rng.Float64()*28000
		topo, err := geo.RandomGeometric(n, field, field, seed)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Seed: seed, ShadowSigmaDB: 6 * rng.Float64(), ExtraFrameLossRate: 0.2 * rng.Float64()}
		f := newFixture(t, cfg, topo.Positions)
		m := f.medium
		removed := make([]bool, n)
		var want uint64
		sent := 0
		for i := 0; i < 12*n; i++ {
			a, b := StationID(rng.Intn(n)), StationID(rng.Intn(n))
			at := time.Duration(rng.Intn(5000)) * time.Millisecond
			pos := geo.Point{X: rng.Float64() * field, Y: rng.Float64() * field}
			size := 1 + rng.Intn(60)
			switch k := rng.Intn(20); {
			case k == 0:
				f.sched.MustAfter(at, func() { removed[a] = true; _ = m.Remove(a) })
			case k == 1:
				f.sched.MustAfter(at, func() { _ = m.SetPosition(a, pos) })
			case k == 2:
				f.sched.MustAfter(at, func() { _ = m.SetListening(a, size%2 == 0) })
			case k == 3:
				f.sched.MustAfter(at, func() { _ = m.SetLinkBlocked(a, b, size%3 != 0) })
			default:
				f.sched.MustAfter(at, func() {
					airtime, err := m.Transmit(a, make([]byte, size), p)
					if err != nil {
						return // removed or already transmitting: part of the workload
					}
					sent++
					// Scheduled right behind the frame's own end-of-airtime
					// event, so it observes the counters just after it.
					f.sched.MustAfter(airtime, func() {
						for id := range removed {
							if StationID(id) != a && !removed[id] {
								want++
							}
						}
						if got := outcomes(m.Stats()); got != want {
							t.Fatalf("seed %d: after frame from %d: outcome counters sum to %d, want %d", seed, a, got, want)
						}
					})
				})
			}
		}
		f.sched.Run(0)
		if st := m.Stats(); sent == 0 || st.FramesSent != uint64(sent) || st.FramesDelivered == 0 || st.LostCollision == 0 {
			t.Fatalf("seed %d: workload too thin to mean anything: sent %d, stats %+v", seed, sent, st)
		}
	}
}
