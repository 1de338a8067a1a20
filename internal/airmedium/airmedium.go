// Package airmedium simulates the shared LoRa radio channel. It evaluates
// every transmission at the stations that hear its sender above
// sensitivity, applying the link budget (path loss, sensitivity, SNR
// floors from internal/loraphy), half-duplex constraints, and the
// capture-effect collision rules, books every other station's loss in
// bulk, and delivers the surviving frames at their end-of-airtime instants
// through the discrete-event scheduler.
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
	"slices"
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
	// obs is rx as a TxObserver, or nil, asserted once by AddStation: an
	// interface assertion on the frame path fills the runtime's per-site
	// cache at a random call, an allocation no warm-up takes out.
	obs TxObserver
	// gen counts changes to this station that alter its link budgets
	// (moves and removal; not link blocking, which SetLinkBlocked keeps
	// outside the cache); cached receptions tagged with an older
	// generation are stale. See reception.
	gen uint32
	// txUntil is the end of this station's most recent transmission,
	// for half-duplex checks and double-transmit detection.
	txUntil time.Time
	airtime time.Duration
	// reach lists the stations that hear this station's frames above
	// sensitivity; see Medium.reach.
	reach reachList
	// quietAt is this station's index in Medium.quiet plus one, 0 while
	// it is listening and not removed.
	quietAt int
	// stamp is the serial of the last frame whose exceptions listed this
	// station; see Medium.exceptions.
	stamp uint32
}

// reachList is the ascending list of stations that hear one sender above
// sensitivity, valid while the medium's topology generation and the
// frame's carrier frequency, SF and BW match those it was built for. It
// holds at most one id per station.
type reachList struct {
	topo   uint32
	freqHz float64
	sf     loraphy.SpreadingFactor
	bw     loraphy.Bandwidth
	ids    []StationID
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

// transmission is one in-flight or recently ended frame. Records are
// recycled through Medium.free once prune drops them.
type transmission struct {
	from   StationID
	start  time.Time
	end    time.Time
	data   []byte
	params loraphy.Params
	// done is m.finish bound to this record, made once when the record
	// is created so a recycled record schedules without allocating.
	done func()
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
	// evaluations; pruned as time advances. overlaps is the part of it
	// overlapping the frame being received.
	recent   []*transmission
	overlaps []*transmission
	// free holds records prune dropped from recent, for Transmit to
	// reuse; it never outgrows recent's peak length.
	free []*transmission
	// topo counts changes that alter some link budget (AddStation,
	// SetPosition, Remove); a reach list built under another value is
	// stale.
	topo uint32
	// changes counts SetListening, SetPosition and Remove calls: receive
	// books out-of-reach stations in bulk only while it stands still.
	changes uint32
	// quiet holds the removed or non-listening stations, in no order.
	quiet []StationID
	// serial numbers the frames receive evaluates, for station stamps;
	// except is the scratch list of the frame being received.
	serial uint32
	except []StationID
	// blocked marks severed links (partition injection); keys are
	// ordered (lo, hi) station pairs.
	blocked map[[2]StationID]bool
	// lossCache memoizes reception per ordered (from, to) pair: the
	// shadowed link budget and what loraphy.Receive derives from it
	// (RSSI, SNR, the sensitivity verdict) are deterministic in (pair,
	// positions, freq, SF, BW), and reception is evaluated at every
	// station in reach per frame and at every station when a reach list
	// is built, so the log-distance/shadowing math dominates
	// dense-network runs without it. Entries self-invalidate via station
	// generations (bumped on SetPosition and Remove) and their radio-
	// parameter key rather than being cleared eagerly. A sender's row is
	// grown on first use, so stations that never transmit cost none.
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
	obs, _ := rx.(TxObserver)
	m.stations = append(m.stations, &station{id: id, pos: pos, rx: rx, obs: obs, listening: true})
	m.topo++
	m.lossCache = append(m.lossCache, nil)
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
	m.topo++
	m.changes++
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
	m.changes++
	m.fileQuiet(s)
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
	m.topo++
	m.changes++
	m.fileQuiet(s)
	return nil
}

// fileQuiet adds s to m.quiet or takes it out, as it is now removed or
// not listening, or neither.
func (m *Medium) fileQuiet(s *station) {
	if quiet := s.removed || !s.listening; quiet == (s.quietAt > 0) {
		return
	} else if quiet {
		m.quiet = append(m.quiet, s.id)
		s.quietAt = len(m.quiet)
		return
	}
	last := m.quiet[len(m.quiet)-1]
	m.quiet[s.quietAt-1] = last
	m.stations[last].quietAt = s.quietAt
	m.quiet = m.quiet[:len(m.quiet)-1]
	s.quietAt = 0
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
	tx := m.newTransmission()
	tx.from, tx.start, tx.end, tx.params = id, now, now.Add(airtime), params
	// The medium keeps its own copy of the frame (the caller may reuse
	// data at once), in the buffer the recycled record kept: receivers
	// do not retain Delivery.Data past OnFrame (see Receiver), and a
	// record is recycled only after its finish ran.
	tx.data = append(tx.data[:0], data...)
	s.txUntil = tx.end
	s.airtime += airtime
	m.recent = append(m.recent, tx)
	m.stats.FramesSent++
	m.stats.AirtimeTotal += airtime
	m.sched.MustAfter(airtime, tx.done)
	return airtime, nil
}

// newTransmission returns a record from the free list, or a new one with
// its finish callback bound.
func (m *Medium) newTransmission() *transmission {
	if n := len(m.free); n > 0 {
		tx := m.free[n-1]
		m.free[n-1] = nil
		m.free = m.free[:n-1]
		return tx
	}
	tx := &transmission{}
	tx.done = func() { m.finish(tx) }
	return tx
}

// finish runs at a frame's end-of-airtime: book the frame's outcome at
// every other station, deliver survivors, notify the sender, and prune
// history.
func (m *Medium) finish(tx *transmission) {
	m.receive(tx)
	if sender := m.stations[int(tx.from)]; !sender.removed && sender.obs != nil {
		sender.obs.OnTxDone(m.sched.Now())
	}
	m.prune()
}

// receive books frame tx's outcome at every other station, in ascending
// id order, as evaluate at each would: the stations in the sender's reach
// list through evaluate itself, the rest in bulk by book. Only an OnFrame
// can change the field meanwhile; once one has moved, removed, woken or
// silenced a station, the remaining stations go through evaluate one by
// one, as they stand then.
func (m *Medium) receive(tx *transmission) {
	n := StationID(len(m.stations))
	m.gatherOverlaps(tx)
	reach, except := m.reach(tx), m.exceptions(tx)
	changes := m.changes
	lo := StationID(0)
	for _, r := range reach {
		except = m.book(tx, except, lo, r)
		m.evaluate(tx, m.stations[r])
		lo = r + 1
		if m.changes != changes {
			for _, s := range m.stations[lo:n] {
				if s.id != tx.from && !s.removed {
					m.evaluate(tx, s)
				}
			}
			return
		}
	}
	m.book(tx, except, lo, n)
}

// reach returns the ascending ids of the stations, the sender excluded,
// that hear tx's sender above sensitivity at tx's frequency, SF and BW,
// rebuilding the sender's list from the reception cache when the topology
// or those parameters changed since it was built.
func (m *Medium) reach(tx *transmission) []StationID {
	r, p := &m.stations[int(tx.from)].reach, tx.params
	// A zero reachList never matches: AddStation made m.topo at least 1.
	if r.topo == m.topo && r.freqHz == p.FrequencyHz &&
		r.sf == p.SpreadingFactor && r.bw == p.Bandwidth {
		return r.ids
	}
	ids := r.ids[:0]
	for _, s := range m.stations {
		if s.id != tx.from && !s.removed && m.reception(tx.from, s.id, p).AboveSensitivity {
			ids = append(ids, s.id)
		}
	}
	*r = reachList{topo: m.topo, freqHz: p.FrequencyHz, sf: p.SpreadingFactor, bw: p.Bandwidth, ids: ids}
	return ids
}

// exceptions returns, ascending and each once, the stations outside the
// plain below-sensitivity verdict a station out of reach gets: tx's
// sender, the removed and non-listening stations and the senders of
// frames overlapping tx, found by walking those sets rather than every
// station.
func (m *Medium) exceptions(tx *transmission) []StationID {
	m.serial++
	except := m.stampException(m.except[:0], tx.from)
	for _, id := range m.quiet {
		except = m.stampException(except, id)
	}
	for _, o := range m.overlaps {
		except = m.stampException(except, o.from)
	}
	slices.Sort(except)
	m.except = except
	return except
}

// stampException appends id to except unless this frame listed it already.
func (m *Medium) stampException(except []StationID, id StationID) []StationID {
	if s := m.stations[int(id)]; s.stamp != m.serial {
		s.stamp = m.serial
		except = append(except, id)
	}
	return except
}

// book counts tx's outcome at stations lo..hi-1, which are out of reach,
// as evaluate would: LostBelowSensitivity, except where one of except
// (ascending) is the sender, removed, not listening or was transmitting
// during the frame. It consumes the exceptions up to and including hi,
// the next station in reach, and returns the rest.
func (m *Medium) book(tx *transmission, except []StationID, lo, hi StationID) []StationID {
	below := uint64(hi - lo)
	for len(except) > 0 && except[0] <= hi {
		id := except[0]
		except = except[1:]
		if id == hi {
			break // in reach: evaluate decides
		}
		below--
		switch s := m.stations[int(id)]; {
		case id == tx.from || s.removed:
		case m.linkBlocked(tx.from, id):
			below++
		case !s.listening:
			m.stats.LostNotListening++
		case m.transmittedDuring(id):
			m.stats.LostHalfDuplex++
		default:
			below++
		}
	}
	m.stats.LostBelowSensitivity += below
	return except
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
	if m.transmittedDuring(s.id) {
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

// gatherOverlaps fills m.overlaps with the transmissions in recent whose
// airtime overlaps tx's: those that blind their own sender to tx and
// those that may interfere with it. The sender is half-duplex too: it
// cannot have emitted two overlapping frames (enforced in Transmit), so no
// other entry from tx.from overlaps tx. A frame an OnFrame sends starts at
// tx's end, so the list holds while tx is received.
func (m *Medium) gatherOverlaps(tx *transmission) {
	overlaps := m.overlaps[:0]
	for _, o := range m.recent {
		if o.from != tx.from && o.start.Before(tx.end) && o.end.After(tx.start) {
			overlaps = append(overlaps, o)
		}
	}
	m.overlaps = overlaps
}

// transmittedDuring reports whether station id sent any frame
// overlapping the one being received.
func (m *Medium) transmittedDuring(id StationID) bool {
	for _, o := range m.overlaps {
		if o.from == id {
			return true
		}
	}
	return false
}

// survivesInterference applies the capture model against every overlapping
// co-frequency transmission at receiver s.
func (m *Medium) survivesInterference(tx *transmission, s *station, signalDBm float64) bool {
	for _, other := range m.overlaps {
		if other.from == s.id || other.params.FrequencyHz != tx.params.FrequencyHz ||
			m.linkBlocked(other.from, s.id) {
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
	row := m.lossCache[int(from)]
	if int(to) >= len(row) {
		// Fresh entries are zero-valued, i.e. invalid.
		row = append(row, make([]cachedLink, len(m.stations)-len(row))...)
		m.lossCache[int(from)] = row
	}
	e := &row[int(to)]
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
	// The earliest start of any frame not yet finished bounds what future
	// evaluations can look back to. A frame ending now may still await
	// its finish, behind this one at the same instant.
	horizon := now
	for _, tx := range m.recent {
		if !tx.end.Before(now) && tx.start.Before(horizon) {
			horizon = tx.start
		}
	}
	kept := m.recent[:0]
	for _, tx := range m.recent {
		if !tx.end.Before(horizon) {
			kept = append(kept, tx)
			continue
		}
		// It ended before now, so its finish has run: reuse the record
		// and its frame buffer.
		m.free = append(m.free, tx)
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
	return len(m.blocked) > 0 && m.blocked[linkKey(a, b)]
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
