// Package airmedium simulates the shared LoRa radio channel. It propagates
// every transmission to every listening station, applying the link budget
// (path loss, sensitivity, SNR floors from internal/loraphy), half-duplex
// constraints, and the capture-effect collision rules, and delivers the
// surviving frames at their end-of-airtime instants through the
// discrete-event scheduler.
//
// The collision model follows the LoRaSim family: two frames interact when
// their airtimes overlap on the same carrier frequency; a frame survives an
// interferer when its received power exceeds the interferer by the
// spreading-factor-dependent capture threshold.
package airmedium

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/geo"
	"repro/internal/loraphy"
	"repro/internal/simtime"
)

// StationID identifies a station on the medium.
type StationID int

// Delivery is a successfully received frame, as handed to a Receiver.
type Delivery struct {
	From    StationID
	Data    []byte
	RSSIDBm float64
	SNRDB   float64
	At      time.Time
}

// Receiver consumes frames delivered to a station. Implementations are
// invoked from scheduler events; they must not block.
//
// The Delivery's Data slice is shared: every receiver of the same
// transmission sees the same backing array (the medium's own copy of the
// frame, which also feeds the collision history). Implementations must
// treat Data as read-only and must not retain it past the OnFrame call —
// copy first if the bytes outlive the callback.
type Receiver interface {
	OnFrame(d Delivery)
}

// TxObserver is an optional extension a Receiver may implement to learn
// when its own transmission completes.
type TxObserver interface {
	OnTxDone(at time.Time)
}

// Config tunes the channel model.
type Config struct {
	// ShadowSigmaDB adds static per-link log-normal shadowing.
	ShadowSigmaDB float64
	// ExtraFrameLossRate injects i.i.d. frame erasures per (frame,
	// receiver) on top of the physical model, for controlled
	// PER sweeps. Must be in [0,1).
	ExtraFrameLossRate float64
	// SoftDecodingWidthDB widens the sensitivity threshold into a soft
	// PER region: a frame whose SNR margin over the demodulation floor
	// is within this many dB is lost with a probability that falls
	// logistically from ~1 at zero margin to ~0 at the full width —
	// matching LoRa's measured PER-vs-SNR curves. Zero keeps the hard
	// threshold.
	SoftDecodingWidthDB float64
	// Seed drives shadowing and frame-erasure randomness.
	Seed int64
}

// Stats counts per-medium outcomes. A single transmitted frame can appear
// in several receiver-outcome counters, one per potential receiver.
type Stats struct {
	FramesSent           uint64
	FramesDelivered      uint64
	LostBelowSensitivity uint64
	LostCollision        uint64
	LostHalfDuplex       uint64
	LostRandom           uint64
	LostNotListening     uint64
	AirtimeTotal         time.Duration
}

// station is one radio endpoint on the medium.
type station struct {
	id        StationID
	pos       geo.Point
	rx        Receiver
	listening bool
	removed   bool
	// gen counts changes to this station that alter its link budgets
	// (moves and removal; not link blocking, which SetLinkBlocked keeps
	// outside the cache); cached receptions tagged with an older
	// generation are stale. See reception.
	gen uint32
	// txUntil is the end of this station's most recent transmission,
	// for half-duplex checks and double-transmit detection.
	txUntil time.Time
	airtime time.Duration
}

// cachedLink is one cached link budget for an ordered station pair: the
// loraphy.Reception of the pair's shadowed path loss under one set of
// radio parameters. The entry is valid only while both stations'
// generations, the carrier frequency and the (SF, BW) it was computed for
// all match. It packs into 40 B; the matrix holds one per ordered pair.
type cachedLink struct {
	genFrom, genTo uint32
	freqHz         float64
	rssiDBm, snrDB float64
	sf             loraphy.SpreadingFactor
	bw             loraphy.Bandwidth
	above          bool // loraphy.Reception.AboveSensitivity
	valid          bool
}

// transmission is one in-flight or recently ended frame.
type transmission struct {
	from   StationID
	start  time.Time
	end    time.Time
	data   []byte
	params loraphy.Params
}

// Medium is the shared channel. It is not safe for concurrent use; the
// simulation drives it from the scheduler goroutine.
type Medium struct {
	sched *simtime.Scheduler
	cfg   Config
	// budget and shadow's base model are the EU868 defaults (14 dBm,
	// dipoles; suburban log-distance fit): no program runs another.
	budget   loraphy.LinkBudget
	shadow   loraphy.ShadowedModel
	rng      *rand.Rand
	stations []*station
	// recent holds transmissions that may still overlap future frame
	// evaluations; pruned as time advances.
	recent []*transmission
	// blocked marks severed links (partition injection); keys are
	// ordered (lo, hi) station pairs.
	blocked map[[2]StationID]bool
	// lossCache memoizes reception per ordered (from, to) pair: the
	// shadowed link budget and what loraphy.Receive derives from it
	// (RSSI, SNR, the sensitivity verdict) are deterministic in (pair,
	// positions, freq, SF, BW), and reception is evaluated at every
	// station per frame, so the log-distance/shadowing math dominates
	// dense-network runs without it. Entries self-invalidate via station
	// generations (bumped on SetPosition and Remove) and their radio-
	// parameter key rather than being cleared eagerly.
	lossCache [][]cachedLink
	stats     Stats
}

// New creates a medium on the given scheduler.
func New(sched *simtime.Scheduler, cfg Config) (*Medium, error) {
	if sched == nil {
		return nil, fmt.Errorf("airmedium: nil scheduler")
	}
	if cfg.ExtraFrameLossRate < 0 || cfg.ExtraFrameLossRate >= 1 {
		return nil, fmt.Errorf("airmedium: ExtraFrameLossRate %v out of [0,1)", cfg.ExtraFrameLossRate)
	}
	return &Medium{
		sched:   sched,
		cfg:     cfg,
		budget:  loraphy.DefaultLinkBudget(),
		blocked: make(map[[2]StationID]bool),
		shadow: loraphy.ShadowedModel{
			Base:    loraphy.DefaultLogDistance(),
			SigmaDB: cfg.ShadowSigmaDB,
			Seed:    uint64(cfg.Seed),
		},
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}, nil
}

// AddStation registers a new listening station at pos.
func (m *Medium) AddStation(pos geo.Point, rx Receiver) (StationID, error) {
	if rx == nil {
		return 0, fmt.Errorf("airmedium: nil receiver")
	}
	id := StationID(len(m.stations))
	m.stations = append(m.stations, &station{id: id, pos: pos, rx: rx, listening: true})
	// Grow the loss matrix; fresh entries are zero-valued, i.e. invalid.
	for i := range m.lossCache {
		m.lossCache[i] = append(m.lossCache[i], cachedLink{})
	}
	m.lossCache = append(m.lossCache, make([]cachedLink, len(m.stations)))
	return id, nil
}

// Stats returns a copy of the medium-wide counters.
func (m *Medium) Stats() Stats { return m.stats }

// StationAirtime returns the cumulative transmit airtime of a station.
func (m *Medium) StationAirtime(id StationID) (time.Duration, error) {
	s, err := m.station(id)
	if err != nil {
		return 0, err
	}
	return s.airtime, nil
}

// SetPosition moves a station (mobility support).
func (m *Medium) SetPosition(id StationID, pos geo.Point) error {
	s, err := m.station(id)
	if err != nil {
		return err
	}
	s.pos = pos
	s.gen++ // invalidate cached link budgets involving this station
	return nil
}

// Position returns a station's current position.
func (m *Medium) Position(id StationID) (geo.Point, error) {
	s, err := m.station(id)
	if err != nil {
		return geo.Point{}, err
	}
	return s.pos, nil
}

// SetListening controls whether the station's receiver is active (a radio
// in sleep or standby misses frames).
func (m *Medium) SetListening(id StationID, on bool) error {
	s, err := m.station(id)
	if err != nil {
		return err
	}
	s.listening = on
	return nil
}

// Remove permanently silences a station (failure injection). Removed
// stations neither transmit nor receive.
func (m *Medium) Remove(id StationID) error {
	s, err := m.station(id)
	if err != nil {
		return err
	}
	s.removed = true
	s.listening = false
	s.gen++ // invalidate cached link budgets involving this station
	return nil
}

func (m *Medium) station(id StationID) (*station, error) {
	if int(id) < 0 || int(id) >= len(m.stations) {
		return nil, fmt.Errorf("airmedium: unknown station %d", id)
	}
	return m.stations[int(id)], nil
}

// Transmit puts a frame on the air from the given station. It returns the
// frame's airtime; the frame is evaluated and delivered to receivers at
// its end instant, and the sender's TxObserver (if any) is notified then.
func (m *Medium) Transmit(id StationID, data []byte, params loraphy.Params) (time.Duration, error) {
	s, err := m.station(id)
	if err != nil {
		return 0, err
	}
	if s.removed {
		return 0, fmt.Errorf("airmedium: station %d is removed", id)
	}
	if err := params.Validate(); err != nil {
		return 0, fmt.Errorf("airmedium: %w", err)
	}
	now := m.sched.Now()
	if s.txUntil.After(now) {
		return 0, fmt.Errorf("airmedium: station %d already transmitting until %v", id, s.txUntil)
	}
	airtime, err := params.Airtime(len(data))
	if err != nil {
		return 0, fmt.Errorf("airmedium: %w", err)
	}
	tx := &transmission{
		from:   id,
		start:  now,
		end:    now.Add(airtime),
		data:   append([]byte(nil), data...),
		params: params,
	}
	s.txUntil = tx.end
	s.airtime += airtime
	m.recent = append(m.recent, tx)
	m.stats.FramesSent++
	m.stats.AirtimeTotal += airtime
	m.sched.MustAfter(airtime, func() { m.finish(tx) })
	return airtime, nil
}

// finish runs at a frame's end-of-airtime: evaluate reception at every
// other station, deliver survivors, notify the sender, and prune history.
func (m *Medium) finish(tx *transmission) {
	for _, s := range m.stations {
		if s.id == tx.from || s.removed {
			continue
		}
		m.evaluate(tx, s)
	}
	if sender := m.stations[int(tx.from)]; !sender.removed {
		if obs, ok := sender.rx.(TxObserver); ok {
			obs.OnTxDone(m.sched.Now())
		}
	}
	m.prune()
}

// evaluate decides whether station s receives frame tx and delivers it.
func (m *Medium) evaluate(tx *transmission, s *station) {
	if m.linkBlocked(tx.from, s.id) {
		m.stats.LostBelowSensitivity++
		return
	}
	if !s.listening {
		m.stats.LostNotListening++
		return
	}
	// Half-duplex: any own transmission overlapping the frame blinds the
	// receiver.
	if m.transmittedDuring(s.id, tx.start, tx.end) {
		m.stats.LostHalfDuplex++
		return
	}
	rec := m.reception(tx.from, s.id, tx.params)
	if !rec.AboveSensitivity {
		m.stats.LostBelowSensitivity++
		return
	}
	if m.cfg.SoftDecodingWidthDB > 0 && m.lostInSoftRegion(tx.params, rec.SNRDB) {
		m.stats.LostBelowSensitivity++
		return
	}
	if !m.survivesInterference(tx, s, rec.RSSIDBm) {
		m.stats.LostCollision++
		return
	}
	if m.cfg.ExtraFrameLossRate > 0 && m.rng.Float64() < m.cfg.ExtraFrameLossRate {
		m.stats.LostRandom++
		return
	}
	m.stats.FramesDelivered++
	// Data aliases the medium's own copy of the frame (made in Transmit);
	// Receiver's contract makes it read-only and non-retained, so one
	// copy serves every receiver of the transmission.
	s.rx.OnFrame(Delivery{
		From:    tx.from,
		Data:    tx.data,
		RSSIDBm: rec.RSSIDBm,
		SNRDB:   rec.SNRDB,
		At:      m.sched.Now(),
	})
}

// transmittedDuring reports whether station id had any own transmission
// overlapping [start, end).
func (m *Medium) transmittedDuring(id StationID, start, end time.Time) bool {
	for _, other := range m.recent {
		if other.from == id && other.start.Before(end) && other.end.After(start) {
			return true
		}
	}
	return false
}

// survivesInterference applies the capture model against every overlapping
// co-frequency transmission at receiver s.
func (m *Medium) survivesInterference(tx *transmission, s *station, signalDBm float64) bool {
	for _, other := range m.recent {
		if other == tx || other.from == s.id || other.from == tx.from {
			// The sender is half-duplex too: it cannot have emitted two
			// overlapping frames (enforced in Transmit), so any other
			// entry from tx.from does not overlap tx.
			continue
		}
		if other.params.FrequencyHz != tx.params.FrequencyHz {
			continue
		}
		if m.linkBlocked(other.from, s.id) {
			continue
		}
		if !(other.start.Before(tx.end) && other.end.After(tx.start)) {
			continue
		}
		interfDBm := m.reception(other.from, s.id, other.params).RSSIDBm
		// Interference far below the noise floor cannot destroy the frame
		// even at adverse capture thresholds.
		if interfDBm < tx.params.NoiseFloorDBm()-10 {
			continue
		}
		ok, err := loraphy.Survives(tx.params.SpreadingFactor, signalDBm,
			other.params.SpreadingFactor, interfDBm)
		if err != nil {
			panic(fmt.Sprintf("airmedium: capture eval: %v", err))
		}
		if !ok {
			return false
		}
	}
	return true
}

// reception resolves the link budget of a frame sent with p from one
// station to another: loraphy.Receive on the (optionally shadowed)
// geometric path loss, memoized per ordered pair. A cached entry is reused
// only while both stations' generations, the carrier frequency and p's
// (SF, BW) match, so moving or removing a station lazily invalidates every
// link it is part of. p was validated at Transmit, so Receive cannot fail.
func (m *Medium) reception(from, to StationID, p loraphy.Params) loraphy.Reception {
	sf, st := m.stations[int(from)], m.stations[int(to)]
	e := &m.lossCache[int(from)][int(to)]
	if !e.valid || e.genFrom != sf.gen || e.genTo != st.gen || e.freqHz != p.FrequencyHz ||
		e.sf != p.SpreadingFactor || e.bw != p.Bandwidth {
		loss := m.shadow.LinkPathLossDB(uint64(from), uint64(to), sf.pos.Distance(st.pos), p.FrequencyHz)
		rec, err := loraphy.Receive(p, m.budget, loss)
		if err != nil {
			panic(fmt.Sprintf("airmedium: reception eval: %v", err))
		}
		*e = cachedLink{genFrom: sf.gen, genTo: st.gen, freqHz: p.FrequencyHz,
			rssiDBm: rec.RSSIDBm, snrDB: rec.SNRDB, sf: p.SpreadingFactor, bw: p.Bandwidth,
			above: rec.AboveSensitivity, valid: true}
	}
	return loraphy.Reception{RSSIDBm: e.rssiDBm, SNRDB: e.snrDB, AboveSensitivity: e.above}
}

// lostInSoftRegion samples the near-sensitivity PER curve: the loss
// probability falls logistically across the soft width above the SNR
// demodulation floor.
func (m *Medium) lostInSoftRegion(p loraphy.Params, snrDB float64) bool {
	floor, err := p.SpreadingFactor.SNRFloorDB()
	if err != nil {
		return false
	}
	margin := snrDB - floor
	w := m.cfg.SoftDecodingWidthDB
	if margin >= 2*w {
		return false // deep in the clear region: skip the RNG draw
	}
	per := 1 / (1 + math.Exp(4/w*(margin-w/2)))
	return m.rng.Float64() < per
}

// prune drops transmissions that can no longer overlap any active frame.
func (m *Medium) prune() {
	now := m.sched.Now()
	// The earliest start of any still-active frame bounds what future
	// evaluations can look back to.
	horizon := now
	for _, tx := range m.recent {
		if tx.end.After(now) && tx.start.Before(horizon) {
			horizon = tx.start
		}
	}
	kept := m.recent[:0]
	for _, tx := range m.recent {
		if !tx.end.Before(horizon) {
			kept = append(kept, tx)
		}
	}
	// Zero the tail so pruned frames are collectable.
	for i := len(kept); i < len(m.recent); i++ {
		m.recent[i] = nil
	}
	m.recent = kept
}

// linkKey returns the canonical key for an unordered station pair.
func linkKey(a, b StationID) [2]StationID {
	if a > b {
		a, b = b, a
	}
	return [2]StationID{a, b}
}

// SetLinkBlocked severs (or restores) the link between two stations in
// both directions — partition injection. A blocked link passes neither
// signal nor interference, as if an obstruction absorbed it.
func (m *Medium) SetLinkBlocked(a, b StationID, blocked bool) error {
	if _, err := m.station(a); err != nil {
		return err
	}
	if _, err := m.station(b); err != nil {
		return err
	}
	if blocked {
		m.blocked[linkKey(a, b)] = true
	} else {
		delete(m.blocked, linkKey(a, b))
	}
	// Blocking is decided per pair outside the loss cache (evaluate and
	// survivesInterference consult m.blocked directly), and it does not
	// change any link budget — so no generations are bumped and the
	// cache stays warm across partition injection.
	return nil
}

// linkBlocked reports whether the pair is severed.
func (m *Medium) linkBlocked(a, b StationID) bool {
	return m.blocked[linkKey(a, b)]
}

// Busy reports whether station id currently senses energy on the channel:
// some other station's in-flight transmission reaches it above sensitivity.
// This backs channel-activity detection (CAD / listen-before-talk).
func (m *Medium) Busy(id StationID, freqHz float64) (bool, error) {
	if _, err := m.station(id); err != nil {
		return false, err
	}
	now := m.sched.Now()
	for _, tx := range m.recent {
		if tx.from == id || !tx.end.After(now) || tx.start.After(now) {
			continue
		}
		if tx.params.FrequencyHz != freqHz {
			continue
		}
		if m.linkBlocked(tx.from, id) {
			continue
		}
		if m.reception(tx.from, id, tx.params).AboveSensitivity {
			return true, nil
		}
	}
	return false, nil
}
