package airmedium

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"repro/internal/geo"
	"repro/internal/loraphy"
	"repro/internal/simtime"
)

// sentTx is a transmission as the test saw it go out.
type sentTx struct {
	from       StationID
	start, end time.Time
	params     loraphy.Params
	data       string
}

// TestReceptionCacheMatchesReceive holds the medium's cached link budgets
// to a model that recomputes everything: over random small fields, with
// stations moved, removed, put to sleep and partitioned between bursts of
// overlapping frames sent with random SF, BW and frequency, every
// Delivery's RSSI and SNR, every Busy answer and every Stats counter must
// equal what a fresh loraphy.Receive on shadow.LinkPathLossDB gives, under
// several shadowing sigmas.
func TestReceptionCacheMatchesReceive(t *testing.T) {
	if size := unsafe.Sizeof(cachedLink{}); size > 40 {
		t.Errorf("a cached link is %d B, want at most 40: the matrix holds one per ordered pair", size)
	}
	for _, sigma := range []float64{0, 4, 9} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("sigma=%v/seed=%d", sigma, seed), func(t *testing.T) {
				receptionCacheRun(t, sigma, seed)
			})
		}
	}
}

func receptionCacheRun(t *testing.T, sigma float64, seed int64) {
	const stations = 7
	rng := rand.New(rand.NewSource(seed))
	sched := simtime.NewScheduler(t0)
	m, err := New(sched, Config{ShadowSigmaDB: sigma, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	shadow := loraphy.ShadowedModel{Base: loraphy.DefaultLogDistance(), SigmaDB: sigma, Seed: uint64(seed)}
	budget := loraphy.DefaultLinkBudget()

	randPos := func() geo.Point { return geo.Point{X: rng.Float64() * 5000, Y: rng.Float64() * 5000} }
	pos := make([]geo.Point, stations)
	listening := make([]bool, stations)
	removed := make([]bool, stations)
	blocked := map[[2]StationID]bool{}
	rx := make([]*collector, stations)
	for i := range pos {
		pos[i], listening[i], rx[i] = randPos(), true, &collector{}
		if _, err := m.AddStation(pos[i], rx[i]); err != nil {
			t.Fatal(err)
		}
	}
	fresh := func(from, to StationID, p loraphy.Params) loraphy.Reception {
		loss := shadow.LinkPathLossDB(uint64(from), uint64(to), pos[from].Distance(pos[to]), p.FrequencyHz)
		rec, err := loraphy.Receive(p, budget, loss)
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	overlap := func(a, b sentTx) bool { return a.start.Before(b.end) && a.end.After(b.start) }
	freqs := []float64{868.1e6, 868.3e6}
	randParams := func() loraphy.Params {
		p := loraphy.DefaultParams()
		p.SpreadingFactor = []loraphy.SpreadingFactor{loraphy.SF7, loraphy.SF8, loraphy.SF10}[rng.Intn(3)]
		p.Bandwidth = []loraphy.Bandwidth{loraphy.BW125, loraphy.BW250}[rng.Intn(2)]
		p.FrequencyHz = freqs[rng.Intn(len(freqs))]
		return p
	}

	var want Stats
	var busyChecks, delivered int
	for round := 0; round < 80; round++ {
		// Between bursts, with nothing in flight: change the field.
		for k := rng.Intn(3); k > 0; k-- {
			id := StationID(rng.Intn(stations))
			switch rng.Intn(8) {
			case 0, 1, 2:
				pos[id] = randPos()
				if err := m.SetPosition(id, pos[id]); err != nil {
					t.Fatal(err)
				}
			case 3, 4:
				listening[id] = !listening[id] && !removed[id]
				if err := m.SetListening(id, listening[id]); err != nil {
					t.Fatal(err)
				}
			case 5, 6:
				other := StationID(rng.Intn(stations))
				key := linkKey(id, other)
				blocked[key] = !blocked[key]
				if err := m.SetLinkBlocked(id, other, blocked[key]); err != nil {
					t.Fatal(err)
				}
			case 7:
				if rng.Intn(4) == 0 {
					removed[id], listening[id] = true, false
					if err := m.Remove(id); err != nil {
						t.Fatal(err)
					}
				}
			}
		}

		// A burst of frames at random offsets, some overlapping; Busy is
		// asked at every start.
		var sent []sentTx
		for k := 1 + rng.Intn(5); k > 0; k-- {
			from := StationID(rng.Intn(stations))
			if removed[from] {
				continue
			}
			p, data := randParams(), fmt.Sprintf("r%d-%d", round, k)
			sched.MustAfter(time.Duration(rng.Intn(400))*time.Millisecond, func() {
				air, err := m.Transmit(from, []byte(data), p)
				if err != nil {
					return // still sending its previous frame
				}
				now := sched.Now()
				sent = append(sent, sentTx{from: from, start: now, end: now.Add(air), params: p, data: data})
				want.FramesSent++
				want.AirtimeTotal += air
				id, freq := StationID(rng.Intn(stations)), freqs[rng.Intn(len(freqs))]
				busy := false
				for _, tx := range sent {
					if tx.from != id && !now.Before(tx.start) && tx.end.After(now) &&
						tx.params.FrequencyHz == freq && !blocked[linkKey(tx.from, id)] &&
						fresh(tx.from, id, tx.params).AboveSensitivity {
						busy = true
					}
				}
				got, err := m.Busy(id, freq)
				if err != nil || got != busy {
					t.Fatalf("round %d: Busy(%d, %v) = %v, %v; want %v", round, id, freq, got, err, busy)
				}
				busyChecks++
			})
		}
		for _, c := range rx {
			c.frames = c.frames[:0]
		}
		sched.Run(0)

		// Every receiver outcome of the burst, recomputed.
		wantRx := map[string]Delivery{}
		for _, tx := range sent {
			for to := StationID(0); to < stations; to++ {
				if to == tx.from || removed[to] {
					continue
				}
				if blocked[linkKey(tx.from, to)] {
					want.LostBelowSensitivity++
					continue
				}
				if !listening[to] {
					want.LostNotListening++
					continue
				}
				halfDuplex := false
				for _, own := range sent {
					halfDuplex = halfDuplex || (own.from == to && overlap(own, tx))
				}
				if halfDuplex {
					want.LostHalfDuplex++
					continue
				}
				rec := fresh(tx.from, to, tx.params)
				if !rec.AboveSensitivity {
					want.LostBelowSensitivity++
					continue
				}
				survives := true
				for _, o := range sent {
					if o.from == to || o.from == tx.from || o.params.FrequencyHz != tx.params.FrequencyHz ||
						blocked[linkKey(o.from, to)] || !overlap(o, tx) {
						continue
					}
					interf := fresh(o.from, to, o.params).RSSIDBm
					if interf < tx.params.NoiseFloorDBm()-10 {
						continue
					}
					ok, err := loraphy.Survives(tx.params.SpreadingFactor, rec.RSSIDBm, o.params.SpreadingFactor, interf)
					if err != nil {
						t.Fatal(err)
					}
					survives = survives && ok
				}
				if !survives {
					want.LostCollision++
					continue
				}
				want.FramesDelivered++
				wantRx[fmt.Sprint(to, tx.data)] = Delivery{From: tx.from, RSSIDBm: rec.RSSIDBm, SNRDB: rec.SNRDB}
			}
		}
		if got := m.Stats(); got != want {
			t.Fatalf("round %d: Stats %+v, want %+v", round, got, want)
		}
		for to, c := range rx {
			for _, d := range c.frames {
				key := fmt.Sprint(to, string(d.Data))
				w, ok := wantRx[key]
				if !ok || d.From != w.From || d.RSSIDBm != w.RSSIDBm || d.SNRDB != w.SNRDB {
					t.Fatalf("round %d: station %d got %q from %d at %v dBm, SNR %v dB; want %+v (expected: %v)",
						round, to, d.Data, d.From, d.RSSIDBm, d.SNRDB, w, ok)
				}
				delete(wantRx, key)
				delivered++
			}
		}
		if len(wantRx) != 0 {
			t.Fatalf("round %d: deliveries missing: %v", round, wantRx)
		}
	}
	if delivered == 0 || want.LostCollision == 0 || want.LostBelowSensitivity == 0 || want.LostHalfDuplex == 0 ||
		want.LostNotListening == 0 || busyChecks == 0 {
		t.Errorf("the script covers too little: %d deliveries, %+v, %d Busy checks", delivered, want, busyChecks)
	}
}
