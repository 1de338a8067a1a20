package gateway

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/trace"
)

// The spool is the gateway's durable uplink queue: a bounded in-memory
// queue mirrored by an append-only write-ahead log. Every admitted reading
// is appended as a "put" record before it becomes eligible for uplink;
// acknowledged (uploaded) and evicted readings append a "del" record. On
// open the log is replayed, so readings that were spooled but never
// acknowledged survive a process restart and upload then — no reading the
// mesh delivered is lost to a crash or a long backend outage.
//
// In memory the queue is a FIFO of slots addressed by admission sequence
// number: the reading admitted as number seq sits at slots[seq-base], where
// base is the sequence number of the oldest slot still held. A batch is
// handed out together with its sequence numbers (take) and comes back by
// them: an acknowledgement tombstones those slots by index arithmetic and
// the head then advances past tombstones, so moving a batch costs O(batch)
// however deep the backlog behind it is — whether the batch was the head
// run or left a hole behind an earlier batch that failed. A sequence
// number below base names a reading already evicted, whose eviction
// logged its del; its ack logs none. Eviction pops the head the same way.
// Replay pushes puts onto the same structure.
//
// The log also persists the dedup horizon: every trace ID that ever
// entered the spool (uploaded, pending, or evicted) is remembered — up to
// a bounded horizon — so a reading re-delivered by the mesh after a
// restart is still recognized as a duplicate.
//
// Two write modes exist. With groupCommit zero (the default), every
// append is flushed to the OS immediately — crash-of-process safe, one
// syscall per record. With groupCommit set, appends land in the writer
// buffer and are flushed together once the oldest buffered record has
// waited groupCommit — the group-commit path that turns N records into
// one write syscall under load, at the cost of a bounded window of
// records that a crash can lose (a fleet recovers those via handover:
// the mesh re-delivers through another gateway and the origin-sharded
// backend dedup suppresses whatever was already uploaded). The append
// path is allocation-free in steady state: records are hand-encoded into
// a reusable scratch buffer instead of going through encoding/json.
//
// The spool never fsyncs; power-loss durability is the file system's
// affair — the right trade for an edge bridge whose upstream retries
// anyway.

// spool is the bounded durable queue. It has no lock of its own: every
// method runs under the owning shard's mutex (compaction's bulk write is
// the deliberate exception — see beginCompact).
type spool struct {
	path     string // "" = memory-only
	capacity int
	reg      *metrics.Registry
	// The group-commit instruments, resolved once.
	cCommits    *metrics.Counter
	hCommitRecs *metrics.Histogram

	f *os.File
	w *bufio.Writer

	// groupCommit bounds how long an appended record may sit unflushed;
	// zero flushes every append. Set once, before the first add.
	groupCommit time.Duration
	dirty       bool
	dirtySince  time.Time
	unflushed   int

	// slots holds the readings admitted as base, base+1, … in order, and
	// state what became of each. The head slot is never dead (trim
	// restores that after every removal), and both slices grow on demand —
	// never pre-sized to capacity — and are dropped when the queue empties.
	slots []slot
	state []slotState
	base  uint64
	// data is the arena: each slot's stamp and payload, back to back, the
	// head's starting at offset start (offsets count mod 2³², so a live
	// span stays under 4 GiB — add refuses what would reach it). Its bytes
	// are written once and never rewritten: trim reslices past dead heads
	// and an emptied queue drops the array, so a payload handed out (an
	// in-flight batch, a compaction snapshot) stays valid without a copy.
	// epoch is the At, less its monotonic reading, of the first reading
	// pushed into an empty arena; every stamp counts from it.
	data  []byte
	start uint32
	epoch time.Time
	live  int // slots not dead: the pending readings
	busy  int // of those, how many ride an in-flight batch
	seen  *horizon

	lines    int // WAL records written since last compaction (incl. replayed)
	replayed int // pending readings recovered at open

	// encBuf is the reusable scratch buffer for WAL encoding; it grows to
	// the largest record and stays there, making appends allocation-free.
	encBuf []byte

	// compacting marks a compaction in progress: appends keep going to
	// the live WAL (crash safety) and are additionally captured in
	// compactLog so finishCompact can replay them into the sidecar.
	compacting bool
	compactLog [][]byte

	// validLen is the byte offset just past the last intact,
	// newline-terminated record seen during replay. A torn tail (crash
	// mid-append) is truncated back to this offset before the file is
	// reopened for append, so the next record never concatenates onto a
	// partial line.
	validLen int64
	// tail holds the bytes of a final record that parsed completely but
	// lost its trailing newline to a crash; it is truncated away with the
	// torn bytes and re-appended, framed, once the writer is open.
	tail []byte
}

// slot is one admitted reading as the queue holds it: 16 bytes and no
// pointer. Its At and Reliable sit in the arena as a stamp just before its
// payload (see appendStamp), and end is the arena offset just past that
// payload.
type slot struct {
	trace    trace.TraceID
	end      uint32
	from, to packet.Address
}

// A stamp is a reading's At and Reliable as the arena keeps them: a uvarint
// head whose low stampFlags bits are the flags below and whose high bits
// are zigzag(At − epoch) in nanoseconds, then a varint zone offset in
// seconds east of UTC when the zone is fixed, then varint unix seconds and
// uvarint nanoseconds when the head escapes. The rebuilt At is Equal to the
// original and formats to the same bytes; its monotonic reading, which a
// WAL replay drops anyway, and the name of a zone other than UTC or Local
// are not kept.
const (
	stampReliable = 1 << iota // Reliable
	stampLocal                // At was in time.Local: rebuild it there
	stampFixed                // At's zone is a nonzero offset, which follows
	stampEscape               // At − epoch needs more than 60 bits: seconds and nanoseconds follow
	stampFlags    = 4         // the head's flag bits

	// maxStamp bounds a stamp's length: four varints.
	maxStamp = 4 * binary.MaxVarintLen64

	// maxArena bounds the arena's live span: its offsets are 32-bit.
	maxArena = 1<<32 - 1
)

// errSpoolFull refuses a reading whose stamp and payload would stretch the
// arena's live span past maxArena.
var errSpoolFull = errors.New("gateway: spool: pending payloads would pass 4 GiB")

// appendStamp appends r's stamp against epoch, an instant with no
// monotonic reading. The head holds a distance within ±2⁵⁹ ns (18 years);
// Sub is exact up to ±2⁶³ ns and saturates beyond, so every saturated
// distance escapes too.
func appendStamp(dst []byte, epoch time.Time, r *Reading) []byte {
	var head uint64
	if r.Reliable {
		head |= stampReliable
	}
	_, off := r.At.Zone()
	switch {
	case r.At.Location() == time.Local:
		head |= stampLocal
	case off != 0:
		head |= stampFixed
	}
	d := r.At.Sub(epoch)
	if z := uint64(d<<1) ^ uint64(d>>63); z < 1<<(64-stampFlags) {
		head |= z << stampFlags
	} else {
		head |= stampEscape
	}
	dst = binary.AppendUvarint(dst, head)
	if head&stampFixed != 0 {
		dst = binary.AppendVarint(dst, int64(off))
	}
	if head&stampEscape != 0 {
		dst = binary.AppendVarint(dst, r.At.Unix())
		dst = binary.AppendUvarint(dst, uint64(r.At.Nanosecond()))
	}
	return dst
}

// readStamp is appendStamp's twin: it rebuilds the At and Reliable of the
// stamp at the front of b and returns the stamp's length.
func readStamp(b []byte, epoch time.Time) (at time.Time, reliable bool, n int) {
	head, n := binary.Uvarint(b)
	var off int64
	if head&stampFixed != 0 {
		v, k := binary.Varint(b[n:])
		off, n = v, n+k
	}
	if head&stampEscape != 0 {
		sec, k := binary.Varint(b[n:])
		nsec, j := binary.Uvarint(b[n+k:])
		at, n = time.Unix(sec, int64(nsec)), n+k+j
	} else {
		z := head >> stampFlags
		at = epoch.Add(time.Duration(z>>1) ^ -time.Duration(z&1))
	}
	switch {
	case head&stampLocal != 0:
		at = at.Local()
	case head&stampFixed != 0:
		at = at.In(time.FixedZone("", int(off)))
	default:
		at = at.UTC()
	}
	return at, head&stampReliable != 0, n
}

// entry returns slots[i]'s stamp and payload as the arena holds them.
func (s *spool) entry(i int) []byte {
	from := s.start
	if i > 0 {
		from = s.slots[i-1].end
	}
	return s.data[from-s.start : s.slots[i].end-s.start]
}

// reading rebuilds the reading in slots[i]. Its payload is a capped window
// on the arena, so appending to it never reaches a neighbour.
func (s *spool) reading(i int) Reading {
	e := s.entry(i)
	at, reliable, n := readStamp(e, s.epoch)
	sl := &s.slots[i]
	return Reading{
		From: sl.from, To: sl.to, Trace: sl.trace, Payload: e[n:len(e):len(e)],
		Reliable: reliable, At: at,
	}
}

// fits reports whether r's stamp, counted at its longest, and payload fit
// in the arena's live span.
func (s *spool) fits(r *Reading) bool {
	return uint64(len(s.data))+maxStamp+uint64(len(r.Payload)) <= maxArena
}

// slotState says what became of an admitted reading.
type slotState uint8

const (
	slotQueued slotState = iota // waiting for a batch
	slotBusy                    // riding an in-flight batch
	slotDead                    // acknowledged, evicted or superseded: a tombstone
)

// openSpool opens (and replays) the WAL at path, or builds a memory-only
// spool when path is empty. Group commit is off until the owner sets
// s.groupCommit; open-time appends (tail rewrite, capacity trim) are
// always flushed immediately.
func openSpool(path string, capacity int, seenCap int, reg *metrics.Registry) (*spool, error) {
	s := &spool{
		path:        path,
		capacity:    capacity,
		reg:         reg,
		cCommits:    reg.Counter("ingest.wal.commits"),
		hCommitRecs: reg.Histogram("ingest.wal.commit_records"),
		seen:        newHorizon(seenCap),
	}
	if path == "" {
		return s, nil
	}
	torn, err := s.replay()
	if err != nil {
		return nil, err
	}
	if torn {
		// Cut the torn tail off now, while nothing is appending: leaving
		// it would glue the next record onto the partial line and poison
		// the replay after the *next* restart.
		if err := os.Truncate(path, s.validLen); err != nil {
			return nil, fmt.Errorf("gateway: spool: truncate torn tail: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("gateway: spool: %w", err)
	}
	s.f = f
	s.w = bufio.NewWriter(f)
	if s.tail != nil {
		// The final record was complete but unterminated; it was truncated
		// with the torn bytes, so write it back properly framed.
		if err := s.appendLine(append(s.tail, '\n'), time.Time{}); err != nil {
			return nil, err
		}
		s.tail = nil
	}
	// Respect the capacity bound even across a config change: evict the
	// oldest — with del records and counted drops, so the evictees neither
	// resurrect on the next replay nor vanish silently.
	for s.live > s.capacity {
		ev := s.evictHead()
		s.reg.Counter("gw.drop.oldest").Inc()
		if err := s.appendDel(ev, time.Time{}); err != nil {
			return nil, err
		}
	}
	s.replayed = s.live
	return s, nil
}

// replay rebuilds the pending queue and dedup horizon from the WAL. A
// truncated final line (crash mid-append) is tolerated — torn reports it
// so openSpool truncates the file back to the last intact record before
// appending resumes. Any earlier line that parseRecord does not read is an
// error, because silently skipping it could drop data the log promised to
// keep.
func (s *spool) replay() (torn bool, err error) {
	f, err := os.Open(s.path)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("gateway: spool: %w", err)
	}
	defer f.Close()

	// at resolves a del to the oldest pending slot of its ID, and more
	// holds the later ones, oldest first: an ID falls off the dedup
	// horizon while still pending and is re-admitted, so two slots can
	// hold it, and a del names a trace, not a slot. Each del in the log
	// removed exactly one pending reading (ackAt logs none for a reading
	// evicted in flight), so resolving it to the oldest keeps as many
	// copies of an ID as memory held; only which copy stays can differ,
	// when a later copy was acked first. Both maps are garbage once replay
	// returns (32 bits a slot: replay numbers from zero, and no log has
	// 2³² puts).
	at := make(map[trace.TraceID]uint32)
	more := make(map[trace.TraceID][]uint32)
	br := bufio.NewReaderSize(f, 64*1024)
	lines := 0
	for {
		line, rerr := br.ReadBytes('\n')
		if rerr != nil && rerr != io.EOF {
			return false, fmt.Errorf("gateway: spool %s: %w", s.path, rerr)
		}
		terminated := rerr == nil
		raw := bytes.TrimSuffix(line, []byte{'\n'})
		if len(raw) > 0 {
			r, put, ok := parseRecord(raw)
			if !ok {
				if terminated {
					// A framed record that does not parse is corruption,
					// not a crash artifact.
					return false, fmt.Errorf("gateway: spool %s: malformed record at line %d", s.path, lines+1)
				}
				// Torn final record: the expected crash artifact. Drop the
				// partial bytes (the reading was never fully durable).
				torn = true
				break
			}
			switch seq, pending := at[r.Trace]; {
			case put && !s.fits(&r):
				return false, fmt.Errorf("gateway: spool %s: pending payloads pass 4 GiB at line %d", s.path, lines+1)
			case put && pending:
				more[r.Trace] = append(more[r.Trace], uint32(s.push(&r)))
			case put:
				at[r.Trace] = uint32(s.push(&r))
			case pending:
				s.kill(uint64(seq))
				s.trim()
				delete(at, r.Trace)
				if later := more[r.Trace]; len(later) > 0 {
					at[r.Trace], more[r.Trace] = later[0], later[1:]
				}
			}
			s.seen.remember(r.Trace)
			lines++
			if !terminated {
				// Complete record, missing only its newline: keep it, but
				// have openSpool rewrite it properly framed (append will
				// re-count it, so it is not counted here).
				s.tail = raw
				lines--
				torn = true
				break
			}
		}
		s.validLen += int64(len(line))
		if rerr == io.EOF {
			break
		}
	}
	s.lines = lines
	s.settle()
	return torn, nil
}

// settle moves the live slots and their arena entries, verbatim, into
// arrays of exactly their size, dropping the dead ones between them and
// the slack that growing left: replay knows the whole backlog it rebuilt,
// and nothing outside the spool holds a sequence number or a payload yet.
// The epoch stays, so every stamp still reads as it did.
func (s *spool) settle() {
	slots := make([]slot, 0, s.live)
	n := 0
	for i, st := range s.state {
		if st != slotDead {
			n += len(s.entry(i))
		}
	}
	data := make([]byte, 0, n)
	for i, st := range s.state {
		if st != slotDead {
			data = append(data, s.entry(i)...)
			sl := s.slots[i]
			sl.end = s.start + uint32(len(data))
			slots = append(slots, sl)
		}
	}
	s.slots, s.state, s.data = slots, make([]slotState, len(slots)), data
	if len(slots) == 0 {
		s.slots, s.state, s.data = nil, nil, nil
	}
}

// horizon is the spool's dedup memory: the last limit distinct trace IDs
// that entered it, in first-sight order. They sit in a ring, 8 bytes an
// ID, that grows to limit, never past it, and then overwrites its oldest,
// and a traceIndex over the ring finds them: once full, 16 bytes an ID at
// a power-of-two limit such as the default 8192, under 24 at any other.
type horizon struct {
	ids   []trace.TraceID
	head  int // the oldest ID's position, once the ring is full
	limit int
	idx   traceIndex
}

func newHorizon(limit int) *horizon {
	h := &horizon{limit: limit}
	h.idx = newTraceIndex(func(pos int) trace.TraceID { return h.ids[pos] })
	return h
}

// has reports whether id is within the horizon.
func (h *horizon) has(id trace.TraceID) bool { return h.idx.has(id) }

// remember adds id as the newest ID unless the horizon holds it,
// forgetting the oldest once the ring is full.
func (h *horizon) remember(id trace.TraceID) {
	if h.has(id) {
		return
	}
	if len(h.ids) < h.limit {
		if len(h.ids) == cap(h.ids) {
			grown := make([]trace.TraceID, len(h.ids), min(max(2*len(h.ids), minIndexTable), h.limit))
			copy(grown, h.ids)
			h.ids = grown
		}
		h.ids = append(h.ids, id)
		h.idx.add(len(h.ids) - 1)
		return
	}
	h.idx.remove(h.head)
	h.ids[h.head] = id
	h.idx.add(h.head)
	if h.head++; h.head == h.limit {
		h.head = 0
	}
}

// growTo extends b by n bytes, reallocating only when capacity runs out.
func growTo(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b[:len(b)+n]
	}
	nb := make([]byte, len(b)+n, 2*(len(b)+n))
	copy(nb, b)
	return nb
}

// appendHexTrace appends the canonical 16-hex-digit trace ID.
func appendHexTrace(dst []byte, id trace.TraceID) []byte {
	const hexd = "0123456789abcdef"
	v := uint64(id)
	for shift := 60; shift >= 0; shift -= 4 {
		dst = append(dst, hexd[(v>>uint(shift))&0xf])
	}
	return dst
}

// readingMaxOverhead bounds appendReading's output for an empty payload:
// the field names and punctuation plus the widest address, trace and time.
const readingMaxOverhead = 128

// appendReading appends r's JSON object — the one encoder for a Reading,
// shared by the WAL and the uplink body; parseReading is its twin. The
// trace ID travels as the canonical 16-hex-digit string so non-Go backends
// never face a 64-bit JSON number. Every field is from a JSON-safe
// alphabet (decimal, hex, base64, RFC 3339), so no escaping pass is needed
// and the encoder allocates nothing once dst has grown.
func appendReading(dst []byte, r *Reading) []byte {
	dst = append(dst, `{"from":`...)
	dst = strconv.AppendUint(dst, uint64(r.From), 10)
	dst = append(dst, `,"to":`...)
	dst = strconv.AppendUint(dst, uint64(r.To), 10)
	dst = append(dst, `,"trace":"`...)
	dst = appendHexTrace(dst, r.Trace)
	dst = append(dst, `","payload":"`...)
	n := base64.StdEncoding.EncodedLen(len(r.Payload))
	off := len(dst)
	dst = growTo(dst, n)
	base64.StdEncoding.Encode(dst[off:off+n], r.Payload)
	if r.Reliable {
		dst = append(dst, `","reliable":true,"at":"`...)
	} else {
		dst = append(dst, `","at":"`...)
	}
	dst = r.At.AppendFormat(dst, time.RFC3339Nano)
	return append(dst, '"', '}')
}

// parseReading is appendReading's twin: it decodes the reading at the front
// of b when b starts with exactly the bytes appendReading writes — its key
// order, no whitespace, no escapes, decimal addresses without leading
// zeros, a 16-digit lowercase hex trace, padded standard base64 — and
// returns what follows. Anything else is rejected (ok false), even where
// encoding/json would accept it: no program writes it. Where it does
// accept, it yields what encoding/json yields: the payload through the
// same base64 decode into a fresh slice, the time through the same
// time.Time.UnmarshalJSON call (FuzzDecodeMatchesJSON holds it to that).
func parseReading(b []byte) (r Reading, rest []byte, ok bool) {
	if b, ok = cut(b, `{"from":`); !ok {
		return r, nil, false
	}
	if r.From, b, ok = parseAddr(b); !ok {
		return r, nil, false
	}
	if b, ok = cut(b, `,"to":`); !ok {
		return r, nil, false
	}
	if r.To, b, ok = parseAddr(b); !ok {
		return r, nil, false
	}
	if b, ok = cut(b, `,"trace":"`); !ok {
		return r, nil, false
	}
	if r.Trace, b, ok = parseHexTrace(b); !ok {
		return r, nil, false
	}
	if b, ok = cut(b, `","payload":"`); !ok {
		return r, nil, false
	}
	// The decoder rejects every byte outside the padded alphabet except
	// \r and \n, which it skips and a JSON string cannot hold unescaped.
	n := bytes.IndexByte(b, '"')
	if n < 0 || bytes.ContainsAny(b[:n], "\r\n") {
		return r, nil, false
	}
	r.Payload = make([]byte, base64.StdEncoding.DecodedLen(n))
	m, err := base64.StdEncoding.Decode(r.Payload, b[:n])
	if err != nil {
		return r, nil, false
	}
	r.Payload = r.Payload[:m]
	b = b[n:]
	if rb, rel := cut(b, `","reliable":true,"at":`); rel {
		r.Reliable, b = true, rb
	} else if b, ok = cut(b, `","at":`); !ok {
		return r, nil, false
	}
	// The time goes to time.Time.UnmarshalJSON with its quotes, as
	// encoding/json hands it over; the twin only checks that the quoted
	// bytes are a JSON string with nothing to unescape.
	if len(b) == 0 || b[0] != '"' {
		return r, nil, false
	}
	n = bytes.IndexByte(b[1:], '"') + 1 // the closing quote, or 0
	if n == 0 || !isPlainString(b[1:n]) || r.At.UnmarshalJSON(b[:n+1]) != nil {
		return r, nil, false
	}
	if b, ok = cut(b[n+1:], "}"); !ok {
		return r, nil, false
	}
	return r, b, true
}

// cut removes lit from the front of b.
func cut(b []byte, lit string) ([]byte, bool) {
	if len(b) < len(lit) || string(b[:len(lit)]) != lit {
		return b, false
	}
	return b[len(lit):], true
}

// parseAddr reads a packet address as strconv.AppendUint writes it: 0, or
// up to five digits without a leading zero, at most 65535.
func parseAddr(b []byte) (packet.Address, []byte, bool) {
	n, v := 0, 0
	for n < len(b) && n <= 5 && '0' <= b[n] && b[n] <= '9' {
		v = v*10 + int(b[n]-'0')
		n++
	}
	if n == 0 || n > 5 || v > 0xFFFF || (n > 1 && b[0] == '0') {
		return 0, b, false
	}
	return packet.Address(v), b[n:], true
}

// parseHexTrace reads the 16 lowercase hex digits appendHexTrace writes.
func parseHexTrace(b []byte) (trace.TraceID, []byte, bool) {
	if len(b) < 16 {
		return 0, b, false
	}
	var v uint64
	for _, c := range b[:16] {
		switch {
		case '0' <= c && c <= '9':
			v = v<<4 | uint64(c-'0')
		case 'a' <= c && c <= 'f':
			v = v<<4 | uint64(c-'a'+10)
		default:
			return 0, b, false
		}
	}
	return trace.TraceID(v), b[16:], true
}

// isPlainString reports whether s can sit between JSON quotes as it is:
// printable ASCII, no quote, no backslash.
func isPlainString(s []byte) bool {
	for _, c := range s {
		if c < 0x20 || c > 0x7e || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}

// encodePut appends one framed put record to dst.
func encodePut(dst []byte, r *Reading) []byte {
	dst = append(dst, `{"op":"put","r":`...)
	dst = appendReading(dst, r)
	return append(dst, '}', '\n')
}

// encodeDel appends one framed del record to dst.
func encodeDel(dst []byte, id trace.TraceID) []byte {
	dst = append(dst, `{"op":"del","trace":"`...)
	dst = appendHexTrace(dst, id)
	dst = append(dst, '"', '}', '\n')
	return dst
}

// parseRecord is encodePut and encodeDel's twin: it decodes one WAL line,
// its newline cut off, when it is exactly what one of them writes. A put
// yields its reading (put true), a del a Reading holding only the trace.
func parseRecord(line []byte) (r Reading, put, ok bool) {
	if b, isPut := cut(line, `{"op":"put","r":`); isPut {
		r, b, ok = parseReading(b)
		return r, true, ok && string(b) == "}"
	}
	b, ok := cut(line, `{"op":"del","trace":"`)
	if !ok {
		return r, false, false
	}
	if r.Trace, b, ok = parseHexTrace(b); !ok {
		return r, false, false
	}
	return r, false, string(b) == `"}`
}

// appendLine writes one pre-encoded record line: straight to the OS when
// group commit is off, into the buffered writer (marked dirty at time at)
// when it is on. A compaction in progress captures a copy so the sidecar
// stays complete.
func (s *spool) appendLine(line []byte, at time.Time) error {
	if s.w == nil {
		return nil
	}
	if s.compacting {
		s.compactLog = append(s.compactLog, append([]byte(nil), line...))
	}
	if _, err := s.w.Write(line); err != nil {
		return fmt.Errorf("gateway: spool: %w", err)
	}
	s.lines++
	if s.groupCommit <= 0 {
		if err := s.w.Flush(); err != nil {
			return fmt.Errorf("gateway: spool: %w", err)
		}
		return nil
	}
	s.unflushed++
	if !s.dirty {
		s.dirty = true
		s.dirtySince = at
	}
	return nil
}

// appendPut hand-encodes and writes one put record (zero-alloc).
func (s *spool) appendPut(r *Reading, at time.Time) error {
	if s.w == nil {
		return nil
	}
	s.encBuf = encodePut(s.encBuf[:0], r)
	return s.appendLine(s.encBuf, at)
}

// appendDel hand-encodes and writes one del record (zero-alloc).
func (s *spool) appendDel(id trace.TraceID, at time.Time) error {
	if s.w == nil {
		return nil
	}
	s.encBuf = encodeDel(s.encBuf[:0], id)
	return s.appendLine(s.encBuf, at)
}

// commitDeadline reports when buffered appends must be flushed.
func (s *spool) commitDeadline() (time.Time, bool) {
	if !s.dirty {
		return time.Time{}, false
	}
	return s.dirtySince.Add(s.groupCommit), true
}

// commitIfDue flushes buffered appends once the oldest has waited the
// group-commit interval.
func (s *spool) commitIfDue(now time.Time) error {
	if !s.dirty || now.Before(s.dirtySince.Add(s.groupCommit)) {
		return nil
	}
	return s.commit()
}

// commit force-flushes buffered appends and records the group size.
func (s *spool) commit() error {
	if !s.dirty {
		return nil
	}
	recs := s.unflushed
	s.dirty = false
	s.unflushed = 0
	if s.w == nil {
		return nil
	}
	if err := s.w.Flush(); err != nil {
		return fmt.Errorf("gateway: spool: %w", err)
	}
	if recs > 0 {
		s.cCommits.Inc()
		s.hCommitRecs.Observe(float64(recs))
	}
	return nil
}

// push appends r at the tail, its stamp and a copy of its payload onto the
// arena, and returns its sequence number. The first reading pushed into an
// empty arena sets the epoch.
func (s *spool) push(r *Reading) uint64 {
	if len(s.slots) == 0 {
		s.epoch = r.At.Round(0)
	}
	s.data = appendStamp(s.data, s.epoch, r)
	s.data = append(s.data, r.Payload...)
	s.slots = append(s.slots, slot{trace: r.Trace, end: s.start + uint32(len(s.data)), from: r.From, to: r.To})
	s.state = append(s.state, slotQueued)
	s.live++
	return s.base + uint64(len(s.slots)-1)
}

// kill tombstones the slot admitted as seq and reports whether it was
// pending; a slot already dead or popped is left alone. The caller trims
// afterwards.
func (s *spool) kill(seq uint64) bool {
	if seq < s.base {
		return false
	}
	i := seq - s.base
	switch s.state[i] {
	case slotDead:
		return false
	case slotBusy:
		s.busy--
	}
	s.state[i] = slotDead
	s.live--
	return true
}

// trim pops the tombstones at the head and reslices the arena past their
// payloads. A trim that empties the queue drops all three arrays, so a
// drained backlog's peak stops pinning memory.
func (s *spool) trim() {
	n := 0
	for n < len(s.state) && s.state[n] == slotDead {
		n++
	}
	if n > 0 {
		end := s.slots[n-1].end
		s.data, s.start = s.data[end-s.start:], end
	}
	s.slots, s.state, s.base = s.slots[n:], s.state[n:], s.base+uint64(n)
	if len(s.slots) == 0 {
		s.slots, s.state, s.data = nil, nil, nil
	}
}

// evictHead removes the oldest pending reading, in flight or not, and
// returns its trace.
func (s *spool) evictHead() trace.TraceID {
	id := s.slots[0].trace
	s.kill(s.base)
	s.trim()
	return id
}

// add admits a copy of r unless the horizon has seen it (dup): enqueue,
// evicting the oldest pending reading when full — its trace is returned
// (evicted true) so the caller can record it. A reading whose stamp and
// payload would stretch the arena past maxArena is refused with
// errSpoolFull. Otherwise the
// in-memory queue is updated before the WAL is written: a failed append
// degrades durability (reported via err), but the admitted reading still
// uplinks from memory.
func (s *spool) add(r Reading) (dup bool, evictedID trace.TraceID, evicted bool, err error) {
	if s.seen.has(r.Trace) {
		return true, 0, false, nil
	}
	if !s.fits(&r) {
		return false, 0, false, errSpoolFull
	}
	if s.live >= s.capacity {
		evictedID, evicted = s.evictHead(), true
	}
	s.seen.remember(r.Trace)
	s.push(&r)
	var firstErr error
	if evicted {
		if werr := s.appendDel(evictedID, r.At); werr != nil {
			firstErr = werr
		}
	}
	if werr := s.appendPut(&r, r.At); werr != nil && firstErr == nil {
		firstErr = werr
	}
	return false, evictedID, evicted, firstErr
}

// take hands out the next batch: up to n queued readings from the head,
// in FIFO order, with their sequence numbers. It marks them in flight, so
// an overlapping batch never carries the same reading; the batch comes
// back through ackAt or release.
func (s *spool) take(n int) (batch []Reading, seqs []uint64) {
	if n > s.queued() {
		n = s.queued()
	}
	batch, seqs = make([]Reading, 0, n), make([]uint64, 0, n)
	for i := 0; len(batch) < n; i++ {
		if s.state[i] == slotQueued {
			s.state[i] = slotBusy
			batch = append(batch, s.reading(i))
			seqs = append(seqs, s.base+uint64(i))
		}
	}
	s.busy += n
	return batch, seqs
}

// release puts a failed batch back in the queue, where it was; readings
// evicted meanwhile stay gone.
func (s *spool) release(seqs []uint64) {
	for _, seq := range seqs {
		if seq >= s.base && s.state[seq-s.base] == slotBusy {
			s.state[seq-s.base] = slotQueued
			s.busy--
		}
	}
}

// ackAt removes an uploaded batch — slot by slot through its sequence
// numbers, so the cost does not depend on what else is pending — and logs
// a del for every reading of it still pending; one evicted while the
// upload was in flight has its del already. Compaction is the caller's affair — check compactDue afterwards
// and run it off the hot path.
func (s *spool) ackAt(batch []Reading, seqs []uint64, now time.Time) error {
	var firstErr error
	for i, seq := range seqs {
		if !s.kill(seq) {
			continue // evicted in flight: its eviction logged the del
		}
		if err := s.appendDel(batch[i].Trace, now); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.trim()
	return firstErr
}

// compactDue reports whether dead records dominate the WAL enough to be
// worth rewriting — the trigger check is cheap and runs under the lock;
// the rewrite itself must not (see beginCompact).
func (s *spool) compactDue() bool {
	return s.f != nil && !s.compacting &&
		s.lines >= 1024 && s.lines >= 4*(s.live+1)
}

// compactState carries an in-progress compaction between the unlocked
// bulk write and finishCompact.
type compactState struct {
	tmp     string
	f       *os.File
	w       *bufio.Writer
	written int
	err     error
}

// beginCompact snapshots the pending readings, in FIFO order, and marks
// the compaction in progress. Runs under the owner's lock; returns
// ok=false when no compaction is due. From here until finishCompact,
// appends keep landing in the live WAL (nothing is lost to a crash
// mid-compaction) and are captured for the sidecar.
func (s *spool) beginCompact() ([]Reading, bool) {
	if !s.compactDue() {
		return nil, false
	}
	s.compacting = true
	return s.pendingReadings(), true
}

// writeCompactTmp bulk-writes the snapshot into the sidecar file. It
// touches no mutable spool state, so it runs WITHOUT the owner's lock —
// the whole point of the split: admissions and uplinks proceed while the
// O(capacity) rewrite happens here.
func (s *spool) writeCompactTmp(snap []Reading) *compactState {
	st := &compactState{tmp: s.path + ".compact"}
	nf, err := os.OpenFile(st.tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		st.err = fmt.Errorf("gateway: spool compact: %w", err)
		return st
	}
	st.f = nf
	st.w = bufio.NewWriter(nf)
	var buf []byte
	for i := range snap {
		buf = encodePut(buf[:0], &snap[i])
		if _, err := st.w.Write(buf); err != nil {
			st.err = fmt.Errorf("gateway: spool compact: %w", err)
			return st
		}
		st.written++
	}
	return st
}

// finishCompact appends the records logged during the bulk write, then
// atomically renames the sidecar over the live WAL and reopens it. Runs
// under the owner's lock; on any failure the live WAL (which kept
// receiving every append) stays authoritative and the sidecar is
// discarded.
func (s *spool) finishCompact(st *compactState) error {
	defer func() {
		s.compacting = false
		s.compactLog = nil
	}()
	fail := func(err error) error {
		if st.f != nil {
			st.f.Close()
		}
		os.Remove(st.tmp)
		return err
	}
	if st.err != nil {
		return fail(st.err)
	}
	for _, line := range s.compactLog {
		if _, err := st.w.Write(line); err != nil {
			return fail(fmt.Errorf("gateway: spool compact: %w", err))
		}
		st.written++
	}
	if err := st.w.Flush(); err != nil {
		return fail(fmt.Errorf("gateway: spool compact: %w", err))
	}
	if err := st.f.Close(); err != nil {
		st.f = nil
		return fail(fmt.Errorf("gateway: spool compact: %w", err))
	}
	if err := os.Rename(st.tmp, s.path); err != nil {
		os.Remove(st.tmp)
		return fmt.Errorf("gateway: spool compact: %w", err)
	}
	// The sidecar is now the log; retire the old handle. Its buffered
	// bytes (group commit) are superseded by the sidecar's contents.
	s.w.Flush()
	s.f.Close()
	s.dirty = false
	s.unflushed = 0
	f, err := os.OpenFile(s.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		s.f = nil
		s.w = nil
		return fmt.Errorf("gateway: spool compact: %w", err)
	}
	s.f = f
	s.w = bufio.NewWriter(f)
	s.lines = st.written
	// The dedup horizon intentionally survives compaction in memory only:
	// after a restart the horizon shrinks to the IDs still in the log,
	// trading perfect restart-dedup for a bounded file.
	s.reg.Counter("gw.spool.compactions").Inc()
	return nil
}

// len returns the number of pending readings, in flight or not.
func (s *spool) len() int { return s.live }

// queued returns how many pending readings no in-flight batch carries.
func (s *spool) queued() int { return s.live - s.busy }

// pendingReadings rebuilds the pending readings in FIFO order; their
// payloads are windows on the arena.
func (s *spool) pendingReadings() []Reading {
	out := make([]Reading, 0, s.live)
	for i, st := range s.state {
		if st != slotDead {
			out = append(out, s.reading(i))
		}
	}
	return out
}

// close flushes and closes the WAL.
func (s *spool) close() error {
	if s.f == nil {
		return nil
	}
	s.dirty = false
	s.unflushed = 0
	if err := s.w.Flush(); err != nil {
		s.f.Close()
		s.f = nil
		s.w = nil
		return fmt.Errorf("gateway: spool: %w", err)
	}
	err := s.f.Close()
	s.f = nil
	s.w = nil
	if err != nil {
		return fmt.Errorf("gateway: spool: %w", err)
	}
	return nil
}

// crash abandons the WAL without flushing buffered appends — test and
// load-harness support for modeling a process crash under group commit:
// whatever sat in the writer buffer is lost, exactly as a real crash
// would lose it.
func (s *spool) crash() {
	if s.f != nil {
		s.f.Close()
	}
	s.f = nil
	s.w = nil
	s.dirty = false
	s.unflushed = 0
}
