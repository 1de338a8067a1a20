package gateway

import (
	"bufio"
	"bytes"
	"encoding/base64"
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
// number below base names a reading already evicted; its ack still logs
// the del. Eviction pops the head the same way. Replay pushes puts onto
// the same structure.
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

	f *os.File
	w *bufio.Writer

	// groupCommit bounds how long an appended record may sit unflushed;
	// zero flushes every append. Set once, before the first add.
	groupCommit time.Duration
	dirty       bool
	dirtySince  time.Time
	unflushed   int

	// slots holds the readings admitted as base, base+1, … in order, and
	// state what became of each; a dead slot's reading is zeroed. The head
	// slot is never dead (trim restores that after every removal), and both
	// slices grow on demand — never pre-sized to capacity.
	slots []Reading
	state []slotState
	base  uint64
	live  int // slots not dead: the pending readings
	busy  int // of those, how many ride an in-flight batch
	seen  map[trace.TraceID]struct{}
	// seenOrder evicts the oldest remembered IDs once the horizon fills,
	// bounding memory for long-running gateways.
	seenOrder []trace.TraceID
	seenCap   int

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
		path:     path,
		capacity: capacity,
		reg:      reg,
		seen:     make(map[trace.TraceID]struct{}),
		seenCap:  seenCap,
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
		if err := s.appendDel(ev.Trace, time.Time{}); err != nil {
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

	// at resolves a del to the slot its put went to. It holds only IDs
	// whose put has seen no del yet and is garbage once replay returns
	// (32 bits a slot: replay numbers from zero, and no log has 2³² puts).
	// A put of an ID still pending supersedes the earlier put (it fell off
	// the dedup horizon and was re-admitted): one slot per ID.
	at := make(map[trace.TraceID]uint32)
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
			if seq, ok := at[r.Trace]; ok {
				s.kill(uint64(seq))
				s.trim()
				delete(at, r.Trace)
			}
			if put {
				at[r.Trace] = uint32(s.push(r))
			}
			s.remember(r.Trace)
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
	return torn, nil
}

// remember adds id to the bounded dedup horizon.
func (s *spool) remember(id trace.TraceID) {
	if _, ok := s.seen[id]; ok {
		return
	}
	s.seen[id] = struct{}{}
	s.seenOrder = append(s.seenOrder, id)
	for len(s.seenOrder) > s.seenCap {
		delete(s.seen, s.seenOrder[0])
		s.seenOrder = s.seenOrder[1:]
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
		s.reg.Counter("ingest.wal.commits").Inc()
		s.reg.Histogram("ingest.wal.commit_records").Observe(float64(recs))
	}
	return nil
}

// push appends r at the tail and returns its sequence number.
func (s *spool) push(r Reading) uint64 {
	s.slots = append(s.slots, r)
	s.state = append(s.state, slotQueued)
	s.live++
	return s.base + uint64(len(s.slots)-1)
}

// kill tombstones the slot admitted as seq; a slot already dead or popped
// is left alone. The caller trims afterwards.
func (s *spool) kill(seq uint64) {
	if seq < s.base {
		return
	}
	i := seq - s.base
	switch s.state[i] {
	case slotDead:
		return
	case slotBusy:
		s.busy--
	}
	s.state[i] = slotDead
	s.slots[i] = Reading{} // let the payload go now, not when the head passes
	s.live--
}

// trim pops the tombstones at the head.
func (s *spool) trim() {
	n := 0
	for n < len(s.state) && s.state[n] == slotDead {
		n++
	}
	s.slots, s.state, s.base = s.slots[n:], s.state[n:], s.base+uint64(n)
}

// evictHead removes and returns the oldest pending reading, in flight or
// not.
func (s *spool) evictHead() Reading {
	old := s.slots[0]
	s.kill(s.base)
	s.trim()
	return old
}

// add admits a reading unless the horizon has seen it (dup): enqueue,
// evicting the oldest pending reading when full. The evicted reading is
// returned so the caller can record it. The in-memory queue is updated
// before the WAL is written: a failed append degrades durability (reported
// via err), but the admitted reading still uplinks from memory.
func (s *spool) add(r Reading) (dup bool, evicted *Reading, err error) {
	if _, dup := s.seen[r.Trace]; dup {
		return true, nil, nil
	}
	if s.live >= s.capacity {
		old := s.evictHead()
		evicted = &old
	}
	s.remember(r.Trace)
	s.push(r)
	var firstErr error
	if evicted != nil {
		if werr := s.appendDel(evicted.Trace, r.At); werr != nil {
			firstErr = werr
		}
	}
	if werr := s.appendPut(&r, r.At); werr != nil && firstErr == nil {
		firstErr = werr
	}
	return false, evicted, firstErr
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
			batch = append(batch, s.slots[i])
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
// a del for every reading in it, also one evicted while the upload was in
// flight. Compaction is the caller's affair — check compactDue afterwards
// and run it off the hot path.
func (s *spool) ackAt(batch []Reading, seqs []uint64, now time.Time) error {
	var firstErr error
	for i, seq := range seqs {
		s.kill(seq)
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

// pendingReadings copies the pending readings out in FIFO order.
func (s *spool) pendingReadings() []Reading {
	out := make([]Reading, 0, s.live)
	for i, st := range s.state {
		if st != slotDead {
			out = append(out, s.slots[i])
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
