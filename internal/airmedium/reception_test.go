package airmedium

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/geo"
	"repro/internal/loraphy"
	"repro/internal/simtime"
)

// TestReceptionCacheMatchesReceive holds the medium to refMedium, a model
// that recomputes everything, over the script of modelRun under several
// shadowing sigmas: every Delivery (RSSI and SNR included), every Busy
// answer and every Stats counter must match.
func TestReceptionCacheMatchesReceive(t *testing.T) {
	if size := unsafe.Sizeof(cachedLink{}); size > 40 {
		t.Errorf("a cached link is %d B, want at most 40: the matrix holds one per ordered pair", size)
	}
	for _, sigma := range []uint8{0, 4, 9} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("sigma=%v/seed=%d", sigma, seed), func(t *testing.T) {
				c := modelRun(t, sigma, seed)
				st := c.stats
				if c.delivered == 0 || st.LostCollision == 0 || st.LostBelowSensitivity == 0 || st.LostHalfDuplex == 0 ||
					st.LostNotListening == 0 || c.busy == 0 || c.meddled == 0 || c.added == 0 {
					t.Errorf("the script covers too little: %+v", c)
				}
			})
		}
	}
}

// FuzzMediumMatchesModel searches modelRun's property over seeds and
// shadowing sigmas.
func FuzzMediumMatchesModel(f *testing.F) {
	for _, sigma := range []uint8{0, 4, 9} {
		for seed := int64(1); seed <= 3; seed++ {
			f.Add(seed, sigma)
		}
	}
	f.Add(int64(101), uint8(9))  // found a reach list reused across spreading factors
	f.Add(int64(-107), uint8(8)) // found prune dropping an interferer of a frame ending at the same instant
	f.Fuzz(func(t *testing.T, seed int64, sigma uint8) {
		modelRun(t, sigma%13, seed)
	})
}

// coverage is what one modelRun exercised.
type coverage struct {
	stats                           Stats
	delivered, busy, meddled, added int
}

// medium is what the script drives: Medium, or refMedium.
type medium interface {
	AddStation(pos geo.Point, rx Receiver) (StationID, error)
	Transmit(id StationID, data []byte, params loraphy.Params) (time.Duration, error)
	SetPosition(id StationID, pos geo.Point) error
	SetListening(id StationID, on bool) error
	SetLinkBlocked(a, b StationID, blocked bool) error
	Remove(id StationID) error
	Busy(id StationID, freqHz float64) (bool, error)
	Stats() Stats
}

// world is one medium under the script, with the state the script and
// the meddling receivers keep of it and a log of everything it reported.
type world struct {
	t         testing.TB
	m         medium
	sched     *simtime.Scheduler
	listening []bool
	removed   []bool
	blocked   map[[2]StationID]bool
	log       []string
	meddled   int
}

func (w *world) logf(format string, args ...any) {
	w.log = append(w.log, w.sched.Now().Format(time.RFC3339Nano)+" "+fmt.Sprintf(format, args...))
}

func (w *world) check(err error) {
	if err != nil {
		w.t.Fatal(err)
	}
}

func (w *world) add(pos geo.Point) {
	id, err := w.m.AddStation(pos, &meddler{w: w, id: StationID(len(w.listening))})
	w.check(err)
	if int(id) != len(w.listening) {
		w.t.Fatalf("AddStation gave id %d, want %d", id, len(w.listening))
	}
	w.listening, w.removed = append(w.listening, true), append(w.removed, false)
}

func (w *world) toggleListening(id StationID) {
	w.listening[id] = !w.listening[id] && !w.removed[id]
	w.check(w.m.SetListening(id, w.listening[id]))
}

func (w *world) toggleBlocked(a, b StationID) {
	key := linkKey(a, b)
	w.blocked[key] = !w.blocked[key]
	w.check(w.m.SetLinkBlocked(a, b, w.blocked[key]))
}

// meddler logs what its station hears and, as the frame's first byte
// asks, changes another station while the frame is still being booked
// at the stations after it: it toggles one's listening, toggles one's
// link to the frame's sender, moves one or removes one.
type meddler struct {
	w  *world
	id StationID
}

func (r *meddler) OnFrame(d Delivery) {
	w := r.w
	w.logf("%d<-%d %q rssi %v snr %v at %v", r.id, d.From, d.Data, d.RSSIDBm, d.SNRDB, d.At)
	op, arg := d.Data[0]%8, int(d.Data[0]/8)
	target := StationID((int(r.id) + 1 + arg) % len(w.listening))
	switch op {
	case 1, 2:
		w.toggleListening(target)
	case 3, 4:
		w.toggleBlocked(target, d.From)
	case 5, 6:
		w.check(w.m.SetPosition(target, geo.Point{X: float64(arg * 397 % 9000), Y: float64(arg * 911 % 9000)}))
	case 7:
		w.removed[target], w.listening[target] = true, false
		w.check(w.m.Remove(target))
	default:
		return
	}
	w.meddled++
}

func (r *meddler) OnTxDone(at time.Time) { r.w.logf("%d tx done at %v", r.id, at) }

// modelRun drives a Medium and a refMedium through one script and fails
// t where they part. Over random small fields, with stations moved,
// removed, put to sleep and partitioned between bursts of overlapping
// frames sent with random SF, BW and frequency, stations added while
// frames are on the air, frame erasures and soft decoding, and receivers
// that change the field from OnFrame, each round's Stats, deliveries,
// OnTxDone calls and Busy answers must agree.
func modelRun(t testing.TB, sigma uint8, seed int64) coverage {
	const maxStations = 12
	rng := rand.New(rand.NewSource(seed))
	cfg := Config{
		ShadowSigmaDB:       float64(sigma),
		Seed:                seed,
		ExtraFrameLossRate:  []float64{0, 0, 0.1}[rng.Intn(3)],
		SoftDecodingWidthDB: []float64{0, 0, 3}[rng.Intn(3)],
	}
	var worlds [2]*world
	for i := range worlds {
		sched := simtime.NewScheduler(t0)
		var m medium
		if i == 0 {
			real, err := New(sched, cfg)
			if err != nil {
				t.Fatal(err)
			}
			m = real
		} else {
			m = newRefMedium(sched, cfg)
		}
		worlds[i] = &world{t: t, m: m, sched: sched, blocked: map[[2]StationID]bool{}}
	}
	both := func(fn func(w *world)) {
		for _, w := range worlds {
			fn(w)
		}
	}
	n := func() int { return len(worlds[0].listening) }

	// A field of 5 or 15 km a side: the larger leaves many stations out
	// of one another's reach.
	side := []float64{5000, 15000}[rng.Intn(2)]
	randPos := func() geo.Point { return geo.Point{X: rng.Float64() * side, Y: rng.Float64() * side} }
	for k := 5 + rng.Intn(3); k > 0; k-- {
		pos := randPos()
		both(func(w *world) { w.add(pos) })
	}
	freqs := []float64{868.1e6, 868.3e6}
	randParams := func() loraphy.Params {
		p := loraphy.DefaultParams()
		p.SpreadingFactor = []loraphy.SpreadingFactor{loraphy.SF7, loraphy.SF8, loraphy.SF10}[rng.Intn(3)]
		p.Bandwidth = []loraphy.Bandwidth{loraphy.BW125, loraphy.BW250}[rng.Intn(2)]
		p.FrequencyHz = freqs[rng.Intn(len(freqs))]
		return p
	}

	var c coverage
	for round := 0; round < 80; round++ {
		// Between bursts, with nothing in flight: change the field.
		for k := rng.Intn(3); k > 0; k-- {
			id, other := StationID(rng.Intn(n())), StationID(rng.Intn(n()))
			switch op, pos, remove := rng.Intn(8), randPos(), rng.Intn(4) == 0; op {
			case 0, 1, 2:
				both(func(w *world) { w.check(w.m.SetPosition(id, pos)) })
			case 3, 4:
				both(func(w *world) { w.toggleListening(id) })
			case 5, 6:
				both(func(w *world) { w.toggleBlocked(id, other) })
			case 7:
				if remove {
					both(func(w *world) {
						w.removed[id], w.listening[id] = true, false
						w.check(w.m.Remove(id))
					})
				}
			}
		}

		// A burst of frames at random offsets, some overlapping, perhaps
		// a station joining among them; Busy is asked at every start.
		for k := 1 + rng.Intn(5); k > 0; k-- {
			from, p, at := StationID(rng.Intn(n())), randParams(), time.Duration(rng.Intn(400))*time.Millisecond
			var op byte
			if rng.Intn(2) == 0 {
				op = byte(rng.Intn(256))
			}
			data := append([]byte{op}, fmt.Sprintf("r%d-%d", round, k)...)
			busyID, busyFreq := StationID(rng.Intn(n())), freqs[rng.Intn(len(freqs))]
			both(func(w *world) {
				w.sched.MustAfter(at, func() {
					air, err := w.m.Transmit(from, data, p)
					if err != nil {
						w.logf("%d refused %q", from, data)
						return // removed, or still sending its previous frame
					}
					busy, err := w.m.Busy(busyID, busyFreq)
					w.check(err)
					w.logf("%d sent %q for %v; Busy(%d, %v) = %v", from, data, air, busyID, busyFreq, busy)
				})
			})
		}
		if n() < maxStations && rng.Intn(3) == 0 {
			pos, at := randPos(), time.Duration(rng.Intn(400))*time.Millisecond
			both(func(w *world) { w.sched.MustAfter(at, func() { w.add(pos) }) })
			c.added++
		}
		both(func(w *world) { w.sched.Run(0) })

		got, want := worlds[0], worlds[1]
		if gs, ws := got.m.Stats(), want.m.Stats(); gs != ws {
			t.Fatalf("round %d: Stats %+v, want %+v", round, gs, ws)
		}
		if i := mismatch(got.log, want.log); i >= 0 {
			t.Fatalf("round %d: event %d differs:\n got %v\nwant %v", round, i, entry(got.log, i), entry(want.log, i))
		}
		for _, line := range want.log {
			if strings.Contains(line, "<-") {
				c.delivered++
			} else if strings.Contains(line, "Busy(") {
				c.busy++
			}
		}
		got.log, want.log = got.log[:0], want.log[:0]
	}
	c.stats, c.meddled = worlds[1].m.Stats(), worlds[1].meddled
	return c
}

// mismatch returns the first index where a and b differ, or -1.
func mismatch(a, b []string) int {
	for i := 0; i < len(a) || i < len(b); i++ {
		if i >= len(a) || i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}

func entry(log []string, i int) string {
	if i < len(log) {
		return log[i]
	}
	return "(nothing)"
}

// refMedium is the channel recomputed from scratch: no loss cache, no
// reach lists, no bulk booking and no pruned history. At each frame's end
// it walks every other station in id order and applies the reception
// rules to a fresh loraphy.Receive, with the field as it stands when it
// reaches that station.
type refMedium struct {
	sched   *simtime.Scheduler
	cfg     Config
	shadow  loraphy.ShadowedModel
	budget  loraphy.LinkBudget
	rng     *rand.Rand
	st      []refStation
	blocked map[[2]StationID]bool
	sent    []*sentTx
	stats   Stats
}

type refStation struct {
	pos                geo.Point
	rx                 Receiver
	listening, removed bool
	txUntil            time.Time
}

// sentTx is one frame the model put on the air.
type sentTx struct {
	from       StationID
	start, end time.Time
	params     loraphy.Params
	data       []byte
}

func newRefMedium(sched *simtime.Scheduler, cfg Config) *refMedium {
	return &refMedium{
		sched:   sched,
		cfg:     cfg,
		shadow:  loraphy.ShadowedModel{Base: loraphy.DefaultLogDistance(), SigmaDB: cfg.ShadowSigmaDB, Seed: uint64(cfg.Seed)},
		budget:  loraphy.DefaultLinkBudget(),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		blocked: map[[2]StationID]bool{},
	}
}

func (r *refMedium) station(id StationID) (*refStation, error) {
	if int(id) < 0 || int(id) >= len(r.st) {
		return nil, fmt.Errorf("unknown station %d", id)
	}
	return &r.st[id], nil
}

func (r *refMedium) AddStation(pos geo.Point, rx Receiver) (StationID, error) {
	r.st = append(r.st, refStation{pos: pos, rx: rx, listening: true})
	return StationID(len(r.st) - 1), nil
}

func (r *refMedium) SetPosition(id StationID, pos geo.Point) error {
	s, err := r.station(id)
	if err == nil {
		s.pos = pos
	}
	return err
}

func (r *refMedium) SetListening(id StationID, on bool) error {
	s, err := r.station(id)
	if err == nil {
		s.listening = on
	}
	return err
}

func (r *refMedium) Remove(id StationID) error {
	s, err := r.station(id)
	if err == nil {
		s.removed, s.listening = true, false
	}
	return err
}

func (r *refMedium) SetLinkBlocked(a, b StationID, blocked bool) error {
	r.blocked[linkKey(a, b)] = blocked
	return nil
}

func (r *refMedium) Stats() Stats { return r.stats }

func (r *refMedium) Transmit(id StationID, data []byte, p loraphy.Params) (time.Duration, error) {
	s, err := r.station(id)
	if err != nil {
		return 0, err
	}
	now := r.sched.Now()
	if s.removed || s.txUntil.After(now) {
		return 0, fmt.Errorf("station %d cannot send", id)
	}
	air, err := p.Airtime(len(data))
	if err != nil {
		return 0, err
	}
	tx := &sentTx{from: id, start: now, end: now.Add(air), params: p, data: append([]byte(nil), data...)}
	s.txUntil = tx.end
	r.sent = append(r.sent, tx)
	r.stats.FramesSent++
	r.stats.AirtimeTotal += air
	r.sched.MustAfter(air, func() { r.finish(tx) })
	return air, nil
}

func (r *refMedium) fresh(from, to StationID, p loraphy.Params) loraphy.Reception {
	loss := r.shadow.LinkPathLossDB(uint64(from), uint64(to), r.st[from].pos.Distance(r.st[to].pos), p.FrequencyHz)
	rec, err := loraphy.Receive(p, r.budget, loss)
	if err != nil {
		panic(err)
	}
	return rec
}

func overlap(a, b *sentTx) bool { return a.start.Before(b.end) && a.end.After(b.start) }

func (r *refMedium) finish(tx *sentTx) {
	for to, n := StationID(0), StationID(len(r.st)); to < n; to++ {
		if to != tx.from && !r.st[to].removed {
			r.evaluate(tx, to)
		}
	}
	if s := r.st[tx.from]; !s.removed {
		if obs, ok := s.rx.(TxObserver); ok {
			obs.OnTxDone(r.sched.Now())
		}
	}
}

func (r *refMedium) evaluate(tx *sentTx, to StationID) {
	if r.blocked[linkKey(tx.from, to)] {
		r.stats.LostBelowSensitivity++
		return
	}
	if !r.st[to].listening {
		r.stats.LostNotListening++
		return
	}
	for _, own := range r.sent {
		if own.from == to && overlap(own, tx) {
			r.stats.LostHalfDuplex++
			return
		}
	}
	rec := r.fresh(tx.from, to, tx.params)
	if !rec.AboveSensitivity {
		r.stats.LostBelowSensitivity++
		return
	}
	if w := r.cfg.SoftDecodingWidthDB; w > 0 {
		floor, err := tx.params.SpreadingFactor.SNRFloorDB()
		if err != nil {
			panic(err)
		}
		if margin := rec.SNRDB - floor; margin < 2*w && r.rng.Float64() < 1/(1+math.Exp(4/w*(margin-w/2))) {
			r.stats.LostBelowSensitivity++
			return
		}
	}
	for _, o := range r.sent {
		if o == tx || o.from == to || o.from == tx.from || o.params.FrequencyHz != tx.params.FrequencyHz ||
			r.blocked[linkKey(o.from, to)] || !overlap(o, tx) {
			continue
		}
		interf := r.fresh(o.from, to, o.params).RSSIDBm
		if interf < tx.params.NoiseFloorDBm()-10 {
			continue
		}
		if ok, err := loraphy.Survives(tx.params.SpreadingFactor, rec.RSSIDBm, o.params.SpreadingFactor, interf); err != nil {
			panic(err)
		} else if !ok {
			r.stats.LostCollision++
			return
		}
	}
	if r.cfg.ExtraFrameLossRate > 0 && r.rng.Float64() < r.cfg.ExtraFrameLossRate {
		r.stats.LostRandom++
		return
	}
	r.stats.FramesDelivered++
	r.st[to].rx.OnFrame(Delivery{From: tx.from, Data: tx.data, RSSIDBm: rec.RSSIDBm, SNRDB: rec.SNRDB, At: r.sched.Now()})
}

func (r *refMedium) Busy(id StationID, freqHz float64) (bool, error) {
	if _, err := r.station(id); err != nil {
		return false, err
	}
	now := r.sched.Now()
	for _, tx := range r.sent {
		if tx.from != id && !now.Before(tx.start) && tx.end.After(now) && tx.params.FrequencyHz == freqHz &&
			!r.blocked[linkKey(tx.from, id)] && r.fresh(tx.from, id, tx.params).AboveSensitivity {
			return true, nil
		}
	}
	return false, nil
}
