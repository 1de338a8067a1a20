package control

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/health"
	"repro/internal/meshsec"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/trace"
)

// SendFunc carries one marshaled command payload toward a node, reliable
// (acknowledged stream) or not. Hosts back it with the gateway downlink
// channel or the control node's own engine.
type SendFunc func(to packet.Address, payload []byte, reliable bool) error

// Config parameterizes a Controller.
type Config struct {
	// State is the desired-state document to reconcile. Required.
	State *State
	// Nodes is every managed node, in any order; the controller derives
	// its rollout order from Distance (farthest first). Required.
	Nodes []packet.Address
	// Send dispatches one command payload. Required.
	Send SendFunc
	// Self, when among Nodes, is the node co-located with the controller
	// (the gateway); commands for it are applied through Local instead
	// of the air.
	Self packet.Address
	// Local applies a command to the co-located node and returns its
	// report. Required when Self is among Nodes.
	Local func(Command) Report
	// Distance returns a node's distance from the controller, used for
	// farthest-first rollout ordering (the order the PR 5 rekey rollout
	// proved out: the far edge rotates first, the gateway last, so the
	// mesh never partitions mid-rollout). Nil keeps the Nodes order.
	Distance func(packet.Address) float64
	// PollInterval documents the host's reconcile cadence (hosts drive
	// Poll themselves). Zero means 30 s.
	PollInterval time.Duration
	// RetryInterval is how long an unacknowledged command waits before a
	// resend (same seq — acks are idempotent). Zero means 60 s.
	RetryInterval time.Duration
	// MaxRetries bounds send attempts per command before the controller
	// gives up and escalates. Zero means 3.
	MaxRetries int
	// Cooldown rate-limits each (node, playbook) pair: a flapping
	// detector re-fires its violation every health poll, and the
	// playbook must stay idempotent under that. Zero means 150 s.
	Cooldown time.Duration
	// StallDecay is how long a retry-exhausted node is left alone before
	// reconciliation tries it again. Exhaustion must not be terminal: a
	// node stalled by transient interference mid-rekey would otherwise
	// stay on the old key forever, cryptographically partitioned. Zero
	// means Cooldown.
	StallDecay time.Duration
	// Escalate, when set, is called after a command exhausts its
	// retries — the out-of-band recovery path (a watchdog or
	// infrastructure power-cycle an in-band command cannot reach).
	// Returning true means the node was forcibly recovered: the
	// controller resets its rollout state and re-reconciles it from
	// scratch.
	Escalate func(addr packet.Address, cmd Command) bool
	// Tracer, when set, receives controller decisions as KindControl
	// events.
	Tracer *trace.Tracer
}

func (c Config) withDefaults() Config {
	if c.PollInterval <= 0 {
		c.PollInterval = 30 * time.Second
	}
	if c.RetryInterval <= 0 {
		c.RetryInterval = 60 * time.Second
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 150 * time.Second
	}
	if c.StallDecay <= 0 {
		c.StallDecay = c.Cooldown
	}
	return c
}

// pending is one command awaiting its report.
type pending struct {
	cmd      Command
	reliable bool
	sentAt   time.Time
	tries    int
}

// nodeTrack is the controller's per-node reconciliation state.
type nodeTrack struct {
	addr packet.Address
	// ackedEpoch is the desired-state version the node last confirmed.
	ackedEpoch uint32
	// stagedKeyEpoch / ackedKeyEpoch / committedKeyEpoch track the three
	// rekey phases (stage, rotate, commit) per node.
	stagedKeyEpoch    uint32
	ackedKeyEpoch     uint32
	committedKeyEpoch uint32
	inflight          *pending
	// stalled marks retry exhaustion; the node is left alone until it
	// reports again, an escalation revives it, or the stall decays
	// (StallDecay) and reconciliation tries again from scratch.
	stalled   bool
	stalledAt time.Time
	// lastPlay rate-limits playbook actions per op.
	lastPlay map[Op]time.Time
}

// queuedCmd is a playbook action awaiting dispatch by the next Poll —
// keeping every send inside the reconcile path keeps runs deterministic.
type queuedCmd struct {
	to       packet.Address
	cmd      Command
	reliable bool
	why      string
}

// actionsCap bounds the retained action journal.
const actionsCap = 4096

// maxInflight bounds concurrently outstanding commands (rekey waves are
// additionally serialized to one at a time).
const maxInflight = 4

// Controller reconciles a desired-state document onto the mesh and runs
// the recovery playbooks. Safe for concurrent use: live hosts call Poll
// from a ticker and ObserveReport/OnViolation from receive goroutines.
type Controller struct {
	cfg Config
	reg *metrics.Registry

	mu      sync.Mutex
	st      *State
	order   []packet.Address // farthest-first rollout order
	nodes   map[packet.Address]*nodeTrack
	queued  []queuedCmd
	seq     uint32
	started bool
	start   time.Time
	// lastViolationSeq detects gaps in the health monitor's violation
	// feed (the monotonic sequence number exists for exactly this).
	lastViolationSeq uint64
	lastRekeyPlay    time.Time
	actions          []string
	actionsDropped   int
	baseKey          meshsec.Key
	hasKey           bool
}

// New builds a controller. The state document is validated here so a
// bad file fails at attach time, not mid-run.
func New(cfg Config) (*Controller, error) {
	if cfg.State == nil {
		return nil, fmt.Errorf("control: nil desired state")
	}
	if err := cfg.State.Validate(); err != nil {
		return nil, err
	}
	if cfg.Send == nil {
		return nil, fmt.Errorf("control: nil Send")
	}
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("control: no nodes to manage")
	}
	cfg = cfg.withDefaults()
	c := &Controller{
		cfg:   cfg,
		reg:   metrics.NewRegistry(),
		st:    cfg.State,
		nodes: make(map[packet.Address]*nodeTrack, len(cfg.Nodes)),
	}
	key, hasKey, err := cfg.State.BaseKey()
	if err != nil {
		return nil, err
	}
	c.baseKey, c.hasKey = key, hasKey
	for _, a := range cfg.Nodes {
		if _, dup := c.nodes[a]; dup {
			return nil, fmt.Errorf("control: node %v listed twice", a)
		}
		if a == cfg.Self && cfg.Local == nil {
			return nil, fmt.Errorf("control: managing self (%v) needs Local", a)
		}
		c.nodes[a] = &nodeTrack{addr: a, lastPlay: make(map[Op]time.Time)}
		c.order = append(c.order, a)
	}
	if cfg.Distance != nil {
		// Farthest first; ties break on address so the order is total.
		sort.SliceStable(c.order, func(i, j int) bool {
			di, dj := cfg.Distance(c.order[i]), cfg.Distance(c.order[j])
			if di != dj {
				return di > dj
			}
			return c.order[i] < c.order[j]
		})
	}
	c.preRegister()
	return c, nil
}

func (c *Controller) preRegister() {
	for _, n := range []string{
		"ctl.commands.sent", "ctl.commands.retries", "ctl.commands.senderr",
		"ctl.commands.exhausted",
		"ctl.reports.received", "ctl.reports.stale", "ctl.reports.unknown",
		"ctl.acks.ok", "ctl.acks.unsupported", "ctl.acks.error",
		"ctl.playbook.blackhole", "ctl.playbook.loop", "ctl.playbook.silent",
		"ctl.playbook.replay", "ctl.playbook.duty_stuck", "ctl.playbook.suppressed",
		"ctl.escalations", "ctl.rekey.epochs", "ctl.stalls.decayed",
		"ctl.violations.observed", "ctl.violations.gap",
	} {
		c.reg.Counter(n)
	}
	c.reg.Gauge("ctl.converged")
	c.reg.Gauge("ctl.inflight")
	c.reg.Gauge("ctl.nodes.stalled")
	c.reg.Gauge("ctl.key.epoch")
}

// Metrics exposes the controller's ctl.* instruments.
func (c *Controller) Metrics() *metrics.Registry { return c.reg }

// PollInterval returns the documented reconcile cadence for hosts that
// arm their own timers.
func (c *Controller) PollInterval() time.Duration { return c.cfg.PollInterval }

// logf appends one line to the deterministic action journal (virtual
// timestamps relative to the first event) and mirrors it to the tracer.
// Called under mu.
func (c *Controller) logf(now time.Time, format string, args ...any) {
	c.noteStart(now)
	line := fmt.Sprintf("+%v %s", now.Sub(c.start), fmt.Sprintf(format, args...))
	if len(c.actions) >= actionsCap {
		c.actions = c.actions[1:]
		c.actionsDropped++
	}
	c.actions = append(c.actions, line)
	if c.cfg.Tracer != nil {
		c.cfg.Tracer.Emit(now, "control", trace.KindControl, "%s", line)
	}
}

func (c *Controller) noteStart(now time.Time) {
	if !c.started {
		c.started = true
		c.start = now
	}
}

// Actions returns the journal of every controller decision so far, in
// order, with timestamps relative to the controller's first activity —
// byte-identical across same-(plan, seed, state) runs, which the chaos
// suite asserts.
func (c *Controller) Actions() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.actions...)
}

// KeyEpoch returns the current desired key epoch (the replay playbook
// bumps it).
func (c *Controller) KeyEpoch() uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.KeyEpoch
}

// Converged reports whether every managed node has acknowledged the
// current document version and key epoch (both rekey phases). Stalled
// nodes count as unconverged.
func (c *Controller) Converged() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.convergedLocked()
}

func (c *Controller) convergedLocked() bool {
	for _, a := range c.order {
		t := c.nodes[a]
		if t.stalled || t.inflight != nil {
			return false
		}
		if c.st.Version > 0 && t.ackedEpoch < c.st.Version {
			return false
		}
		if c.hasKey && c.st.KeyEpoch > 0 &&
			(t.ackedKeyEpoch < c.st.KeyEpoch || t.committedKeyEpoch < c.st.KeyEpoch) {
			return false
		}
	}
	return true
}

// sendItem is one dispatch decided under mu, executed after unlock.
type sendItem struct {
	to       packet.Address
	cmd      Command
	reliable bool
	retry    bool
}

// escItem is one escalation decided under mu, executed after unlock.
type escItem struct {
	to  packet.Address
	cmd Command
}

// Poll runs one reconcile round at now: expire and retry outstanding
// commands, dispatch queued playbook actions, then diff every node
// against the desired state and issue what is missing, farthest first.
// It returns the number of commands dispatched. Hosts call it on a
// fixed cadence (virtual time under simulation, a ticker live).
func (c *Controller) Poll(now time.Time) int {
	c.mu.Lock()
	c.noteStart(now)
	var sends []sendItem
	var escs []escItem

	// Phase 0: decay old stalls so a transient outage cannot exile a
	// node from reconciliation permanently.
	for _, a := range c.order {
		t := c.nodes[a]
		if t.stalled && now.Sub(t.stalledAt) >= c.cfg.StallDecay {
			t.stalled = false
			c.reg.Counter("ctl.stalls.decayed").Inc()
			c.logf(now, "stall decay node=%v: reconciling again", a)
		}
	}

	// Phase 1: retries and exhaustion for whatever is outstanding.
	inflight := 0
	for _, a := range c.order {
		t := c.nodes[a]
		p := t.inflight
		if p == nil {
			continue
		}
		if now.Sub(p.sentAt) < c.cfg.RetryInterval {
			inflight++
			continue
		}
		if p.tries >= c.cfg.MaxRetries {
			t.inflight = nil
			t.stalled = true
			t.stalledAt = now
			c.reg.Counter("ctl.commands.exhausted").Inc()
			c.logf(now, "give-up %s seq=%d node=%v after %d tries", p.cmd.Op, p.cmd.Seq, a, p.tries)
			escs = append(escs, escItem{to: a, cmd: p.cmd})
			continue
		}
		p.tries++
		p.sentAt = now
		c.reg.Counter("ctl.commands.retries").Inc()
		c.logf(now, "retry %s seq=%d node=%v try=%d", p.cmd.Op, p.cmd.Seq, a, p.tries)
		sends = append(sends, sendItem{to: a, cmd: p.cmd, reliable: p.reliable, retry: true})
		inflight++
	}

	// Phase 2: queued playbook actions, FIFO, one outstanding command
	// per node.
	var keep []queuedCmd
	for _, q := range c.queued {
		t := c.nodes[q.to]
		if t == nil {
			continue
		}
		if t.inflight != nil || inflight >= maxInflight {
			keep = append(keep, q)
			continue
		}
		s := c.issueLocked(now, t, q.cmd, q.reliable)
		t.stalled = false
		inflight++
		c.logf(now, "playbook %s: %s seq=%d node=%v", q.why, s.cmd.Op, s.cmd.Seq, q.to)
		sends = append(sends, s)
	}
	c.queued = keep

	// Phase 3: reconcile. Key rollout first (strictly serialized,
	// farthest first: one rotate at a time, then one commit at a time),
	// then configuration epochs, concurrently up to maxInflight.
	keyBusy := false
	target := c.st.KeyEpoch
	if c.hasKey && target > 0 {
		for _, a := range c.order {
			if t := c.nodes[a]; t.inflight != nil && t.inflight.cmd.Op == OpRekey {
				keyBusy = true
				break
			}
		}
		if !keyBusy {
			if s, ok := c.planRekeyLocked(now, target); ok {
				sends = append(sends, s)
				keyBusy = true
				inflight++
			}
		}
	}
	keyDone := !c.hasKey || target == 0 || (!keyBusy && c.keyConvergedLocked(target))
	if keyDone && c.st.Version > 0 {
		for _, a := range c.order {
			if inflight >= maxInflight {
				break
			}
			t := c.nodes[a]
			if t.inflight != nil || t.stalled || t.ackedEpoch >= c.st.Version {
				continue
			}
			s := c.issueLocked(now, t, c.configCommand(a), true)
			inflight++
			c.logf(now, "reconcile epoch=%d: set_config seq=%d node=%v", s.cmd.Epoch, s.cmd.Seq, a)
			sends = append(sends, s)
		}
	}

	c.refreshGaugesLocked(inflight)
	c.mu.Unlock()

	// Dispatch outside the lock: a self-targeted command applies locally
	// and feeds its report straight back into ObserveReport.
	n := 0
	for _, s := range sends {
		if c.dispatch(now, s) {
			n++
		}
	}
	for _, e := range escs {
		if c.cfg.Escalate == nil {
			continue
		}
		if c.cfg.Escalate(e.to, e.cmd) {
			c.mu.Lock()
			c.reg.Counter("ctl.escalations").Inc()
			if t := c.nodes[e.to]; t != nil {
				// The host forcibly recovered the node; reconcile it from
				// scratch (its engine state is gone, its key link is not).
				t.stalled = false
				t.ackedEpoch = 0
				t.inflight = nil
			}
			c.logf(now, "escalated %s node=%v: host recovered it, re-reconciling", e.cmd.Op, e.to)
			c.mu.Unlock()
		}
	}
	return n
}

// keyConvergedLocked reports whether every node — stalled ones
// included — finished both rekey phases for epoch target. A stalled
// node does not get a pass here: declaring convergence (or starting
// another rollout) while one node still seals under the old key would
// paper over a cryptographic partition. Called under mu.
func (c *Controller) keyConvergedLocked(target uint32) bool {
	for _, a := range c.order {
		t := c.nodes[a]
		if t.ackedKeyEpoch < target || t.committedKeyEpoch < target {
			return false
		}
	}
	return true
}

// planRekeyLocked picks the next rekey command in the loss-free
// three-phase rollout, each phase a complete farthest-first wave before
// the next begins: stage (every node accepts the new key while still
// sealing under the old — no seal key changes anywhere during the wave),
// rotate (seal keys switch; already-rotated peers are readable because
// everyone staged, not-yet-rotated peers because rotation keeps the old
// key live), and commit (the old key is retired everywhere — the moment
// replayed old-key traffic stops authenticating). Called under mu.
func (c *Controller) planRekeyLocked(now time.Time, target uint32) (sendItem, bool) {
	key := KeyForEpoch(c.baseKey, target)
	waves := []struct {
		name string
		need func(*nodeTrack) bool
		cmd  Command
	}{
		// A node that already rotated no longer needs staging — e.g. its
		// engine rebooted mid-rollout and re-reported an epoch it holds.
		{"stage", func(t *nodeTrack) bool { return t.stagedKeyEpoch < target && t.ackedKeyEpoch < target },
			Command{Op: OpRekey, Stage: true, KeyEpoch: target, Key: key}},
		{"rotate", func(t *nodeTrack) bool { return t.ackedKeyEpoch < target },
			Command{Op: OpRekey, KeyEpoch: target, Key: key}},
		{"commit", func(t *nodeTrack) bool { return t.committedKeyEpoch < target },
			Command{Op: OpRekey, Commit: true, KeyEpoch: target, Key: key}},
	}
	for _, w := range waves {
		incomplete := false
		for _, a := range c.order {
			t := c.nodes[a]
			if !w.need(t) {
				continue
			}
			// A node that still needs this wave holds it open even while
			// stalled: advancing past it would retire a key somewhere
			// while this node still seals under it, partitioning it
			// cryptographically. Stall decay gets it retried.
			incomplete = true
			if t.stalled || t.inflight != nil {
				continue // resting after exhaustion, or busy; wait
			}
			s := c.issueLocked(now, t, w.cmd, true)
			c.logf(now, "rekey %s epoch=%d seq=%d node=%v", w.name, target, s.cmd.Seq, a)
			return s, true
		}
		if incomplete {
			return sendItem{}, false // this wave must finish first
		}
	}
	return sendItem{}, false
}

// issueLocked stamps cmd with the next sequence number and makes it t's
// outstanding command, first tried at now. Called under mu.
func (c *Controller) issueLocked(now time.Time, t *nodeTrack, cmd Command, reliable bool) sendItem {
	c.seq++
	cmd.Seq = c.seq
	t.inflight = &pending{cmd: cmd, reliable: reliable, sentAt: now, tries: 1}
	return sendItem{to: t.addr, cmd: cmd, reliable: reliable}
}

// configCommand builds the OpSetConfig realizing the document for addr.
func (c *Controller) configCommand(addr packet.Address) Command {
	sp := c.st.Spec(addr)
	return Command{
		Op:          OpSetConfig,
		Epoch:       c.st.Version,
		HelloPeriod: sp.HelloPeriod.D(),
		DutyCycle:   sp.DutyCycle,
		SF:          sp.SF,
		Awake:       sp.Awake.D(),
		Sleep:       sp.Sleep.D(),
	}
}

// dispatch performs one send (or local apply) decided by Poll.
func (c *Controller) dispatch(now time.Time, s sendItem) bool {
	payload := MarshalCommand(s.cmd)
	if s.to == c.cfg.Self && c.cfg.Local != nil {
		rep := c.cfg.Local(s.cmd)
		c.reg.Counter("ctl.commands.sent").Inc()
		c.observe(now, s.to, rep)
		return true
	}
	if err := c.cfg.Send(s.to, payload, s.reliable); err != nil {
		// The attempt still counts (tries was already charged); the
		// retry timer re-sends, and exhaustion escalates as usual.
		c.reg.Counter("ctl.commands.senderr").Inc()
		c.mu.Lock()
		c.logf(now, "send %s seq=%d node=%v failed: %v", s.cmd.Op, s.cmd.Seq, s.to, err)
		c.mu.Unlock()
		return false
	}
	c.reg.Counter("ctl.commands.sent").Inc()
	return true
}

// ObserveReport consumes one mesh delivery if it is a control report,
// reporting whether it was (hosts chain it in front of the application's
// observer). from must be the delivery's source address.
func (c *Controller) ObserveReport(now time.Time, from packet.Address, payload []byte) bool {
	rep, ok := ParseReport(payload)
	if !ok {
		return false
	}
	c.observe(now, from, rep)
	return true
}

func (c *Controller) observe(now time.Time, from packet.Address, rep Report) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reg.Counter("ctl.reports.received").Inc()
	t := c.nodes[from]
	if t == nil {
		c.reg.Counter("ctl.reports.unknown").Inc()
		return
	}
	// A report is proof of life regardless of matching: un-stall.
	t.stalled = false
	if t.inflight == nil || t.inflight.cmd.Seq != rep.Seq {
		c.reg.Counter("ctl.reports.stale").Inc()
		return
	}
	cmd := t.inflight.cmd
	t.inflight = nil
	switch rep.Status {
	case StatusOK, StatusUnsupported:
		// Unsupported is terminal too: the node confirmed receipt and
		// will never be able to comply, so retrying is pointless.
		if rep.Status == StatusOK {
			c.reg.Counter("ctl.acks.ok").Inc()
		} else {
			c.reg.Counter("ctl.acks.unsupported").Inc()
		}
		// Sync the rollout ledger from the node's own snapshot.
		t.ackedEpoch = rep.Epoch
		t.ackedKeyEpoch = rep.KeyEpoch
		if cmd.Op == OpRekey && rep.Status == StatusOK {
			switch {
			case cmd.Stage:
				t.stagedKeyEpoch = cmd.KeyEpoch
			case cmd.Commit:
				t.committedKeyEpoch = cmd.KeyEpoch
			}
		}
		c.logf(now, "ack %s seq=%d node=%v status=%s epoch=%d keyepoch=%d",
			cmd.Op, cmd.Seq, from, rep.Status, rep.Epoch, rep.KeyEpoch)
	case StatusError:
		c.reg.Counter("ctl.acks.error").Inc()
		// Trust the node's reported state and let the next Poll re-plan.
		t.ackedEpoch = rep.Epoch
		t.ackedKeyEpoch = rep.KeyEpoch
		c.logf(now, "nack %s seq=%d node=%v epoch=%d keyepoch=%d",
			cmd.Op, cmd.Seq, from, rep.Epoch, rep.KeyEpoch)
	}
	c.refreshGaugesLocked(-1)
}

// OnViolation maps one health violation onto its recovery playbook.
// Hosts subscribe it to the health monitor; it never sends directly —
// actions queue for the next Poll so every dispatch happens inside the
// deterministic reconcile path.
func (c *Controller) OnViolation(now time.Time, v health.Violation) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.noteStart(now)
	c.reg.Counter("ctl.violations.observed").Inc()
	if v.Seq > 0 {
		if c.lastViolationSeq > 0 && v.Seq > c.lastViolationSeq+1 {
			// Dropped or reordered violations between sink restarts; the
			// sequence number exists so this is visible, not silent.
			c.reg.Counter("ctl.violations.gap").Add(v.Seq - c.lastViolationSeq - 1)
		}
		if v.Seq > c.lastViolationSeq {
			c.lastViolationSeq = v.Seq
		}
	}
	switch v.Kind {
	case health.KindBlackhole, health.KindLoop:
		t := c.nodes[v.Node]
		if t == nil || !c.playAllowedLocked(t, OpTriggerHello, now) {
			return
		}
		// Purge the poisoned path (everything via the dead hop, or the
		// next hop toward the unreachable destination) and beacon now.
		cmd := Command{Op: OpTriggerHello, Dst: v.Dst, Via: v.Via}
		c.enqueuePlayLocked(now, t, cmd, false, v.Kind)
	case health.KindSilent:
		t := c.nodes[v.Node]
		if t == nil || !c.playAllowedLocked(t, OpReboot, now) {
			return
		}
		c.enqueuePlayLocked(now, t, Command{Op: OpReboot}, true, v.Kind)
	case health.KindReplay:
		if !c.hasKey {
			return
		}
		if !c.lastRekeyPlay.IsZero() && now.Sub(c.lastRekeyPlay) < c.cfg.Cooldown {
			c.reg.Counter("ctl.playbook.suppressed").Inc()
			return
		}
		// One rollout at a time: bump the epoch only once the previous
		// one has fully converged, or the fleet would chase a moving key.
		if !c.keyConvergedLocked(c.st.KeyEpoch) {
			c.reg.Counter("ctl.playbook.suppressed").Inc()
			return
		}
		c.lastRekeyPlay = now
		c.st.KeyEpoch++
		c.reg.Counter("ctl.playbook.replay").Inc()
		c.reg.Counter("ctl.rekey.epochs").Inc()
		c.logf(now, "playbook replay: key epoch -> %d (violation at %v)", c.st.KeyEpoch, v.Node)
	case health.KindDutyStuck:
		// Observed, not acted on: relaxing a duty budget is a regulatory
		// decision, not a recovery.
		c.reg.Counter("ctl.playbook.duty_stuck").Inc()
	}
}

// playAllowedLocked applies the per-(node, op) cooldown and dedup.
func (c *Controller) playAllowedLocked(t *nodeTrack, op Op, now time.Time) bool {
	if last, ok := t.lastPlay[op]; ok && now.Sub(last) < c.cfg.Cooldown {
		c.reg.Counter("ctl.playbook.suppressed").Inc()
		return false
	}
	if t.inflight != nil && t.inflight.cmd.Op == op {
		c.reg.Counter("ctl.playbook.suppressed").Inc()
		return false
	}
	for _, q := range c.queued {
		if q.to == t.addr && q.cmd.Op == op {
			c.reg.Counter("ctl.playbook.suppressed").Inc()
			return false
		}
	}
	return true
}

func (c *Controller) enqueuePlayLocked(now time.Time, t *nodeTrack, cmd Command, reliable bool, kind string) {
	t.lastPlay[cmd.Op] = now
	c.reg.Counter("ctl.playbook." + kind).Inc()
	c.queued = append(c.queued, queuedCmd{to: t.addr, cmd: cmd, reliable: reliable, why: kind})
}

// refreshGaugesLocked re-exports the convergence and inflight gauges.
// inflight < 0 recounts.
func (c *Controller) refreshGaugesLocked(inflight int) {
	if inflight < 0 {
		inflight = 0
		for _, a := range c.order {
			if c.nodes[a].inflight != nil {
				inflight++
			}
		}
	}
	stalled := 0
	for _, a := range c.order {
		if c.nodes[a].stalled {
			stalled++
		}
	}
	conv := 0.0
	if c.convergedLocked() {
		conv = 1
	}
	c.reg.Gauge("ctl.converged").Set(conv)
	c.reg.Gauge("ctl.inflight").Set(float64(inflight))
	c.reg.Gauge("ctl.nodes.stalled").Set(float64(stalled))
	c.reg.Gauge("ctl.key.epoch").Set(float64(c.st.KeyEpoch))
}
