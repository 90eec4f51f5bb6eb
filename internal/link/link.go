package link

import (
	"fmt"

	"memnet/internal/audit"
	"memnet/internal/packet"
	"memnet/internal/sim"
)

// Direction distinguishes the two unidirectional link types: request links
// carry traffic away from the processor, response links toward it.
type Direction int

const (
	// DirRequest links carry ReadReq/WriteReq downstream.
	DirRequest Direction = iota
	// DirResponse links carry ReadResp upstream.
	DirResponse
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	if d == DirRequest {
		return "request"
	}
	return "response"
}

// State is the rapid-on/off state of a link.
type State int

const (
	// StateOn: the link is powered and can transmit.
	StateOn State = iota
	// StateOff: the link is in the inaccessible 1%-power state.
	StateOff
	// StateWaking: the link is resynchronizing after an off period.
	StateWaking

	// NumStates sizes per-state arrays (residency accounting).
	NumStates = int(StateWaking) + 1
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateOn:
		return "on"
	case StateOff:
		return "off"
	case StateWaking:
		return "waking"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Config selects a link's power-control capabilities.
type Config struct {
	// Mechanism is the bandwidth-scaling mechanism (none, VWL, DVFS).
	Mechanism Mechanism
	// ROO enables rapid on/off.
	ROO bool
	// Wakeup is the off→on resynchronization latency (14 or 20 ns).
	Wakeup sim.Duration
	// FullWatts is the link's full operating power (≈0.586 W).
	FullWatts float64
}

// Link is one unidirectional point-to-point link plus its controller:
// buffering with read priority, flit serialization at the current
// bandwidth, SERDES delay, ROO state machine, energy integration, and the
// management counters in Monitors, when a policy attaches them.
type Link struct {
	kernel *sim.Kernel
	cfg    Config

	// Identity (immutable after construction).
	ID    int
	Dir   Direction
	Owner int // module whose connectivity link this is (the downstream module of the full link)
	From  int // transmitting module (packet.ProcessorID allowed)
	To    int // receiving module (packet.ProcessorID allowed)
	Depth int // hop distance of the full link's downstream endpoint

	// Deliver receives each packet after its last flit clears SERDES at
	// the far end. Wired by the network layer.
	Deliver func(*packet.Packet)

	// HoldOn, when set, vetoes turning the link off (network-aware ROO
	// keeps response links on while reads are outstanding downstream).
	HoldOn func() bool
	// OnWakeStart fires when the link begins waking (off→waking), the
	// hook the network-aware wakeup cascade uses.
	OnWakeStart func()
	// OnEnqueue fires when a packet enters the buffer (after arrival
	// bookkeeping); the cascade uses it to pre-wake the next hop.
	OnEnqueue func()
	// OnTurnOff fires when the link powers down; the cascade uses it to
	// let the upstream response link re-evaluate its own turn-off.
	OnTurnOff func()

	// Power-control state. A bandwidth transition ends at bwTransEnd;
	// the SetBWMode requests still pending for it were all made at one
	// instant, bwTransEnd less the transition latency. bwReqs counts
	// them, bwFired counts their commit events that have fired, and
	// bwFirst[m] is the 1-based ordinal of the first request for mode m,
	// 0 if none (see bwCommitAction).
	bwMode     int
	bwTarget   int
	bwTransEnd sim.Time
	bwReqs     int32
	bwFired    int32
	bwFirst    [NumBWModes]int32
	// wattsByMode[m] is FullWatts*PowerFactor(mech, m), precomputed so
	// the per-event energy integrator doesn't re-derive the power factor
	// (a float divide for VWL) on every call.
	wattsByMode [NumBWModes]float64
	rooMode     int
	state       State
	forcedFull  bool

	// ROO off-check timer (see armOffCheck). The live arm's check is due
	// at (offAt, offKSeq) in the kernel's total order; offArmed is
	// cleared when traffic or a state change cancels it. cover is the
	// pending off-check event that will reach the live position, filed
	// at (coverAt, coverSeq); nil when none is pending.
	offArmed bool
	offAt    sim.Time
	offKSeq  uint64
	cover    *offCheckAction
	coverAt  sim.Time
	coverSeq uint64

	// Transmission state.
	queue        []*packet.Packet
	transmitting bool
	idleSince    sim.Time
	idleOpen     bool

	// Pooled event actions. The transmit-completion and wake-completion
	// events are singletons (the state machine allows at most one of each
	// in flight), so they live inline in the Link, as do the stateless
	// proactive wake and bandwidth commit, which any number of pending
	// events can share; delivery events overlap across the SERDES
	// pipeline and off-checks overlap when a threshold decrease orphans
	// the pending cover, so those draw from per-link free lists. Together
	// they make steady-state scheduling allocation-free.
	txDone      txDoneAction
	wake        wakeAction
	wakeReq     wakeReqAction
	bwCommit    bwCommitAction
	deliverFree []*deliverAction
	offFree     []*offCheckAction

	// Energy/time integration.
	lastAccount  sim.Time
	energyIdle   float64 // joules
	energyActive float64
	totalBusy    sim.Duration
	// stateTime is the cumulative residency per power state over the
	// whole run (unlike the per-epoch Monitors counters, never reset);
	// the metrics sampler reads it through StateTimes.
	stateTime [NumStates]sim.Duration
	bytes     uint64
	maxQueue  int
	overflows uint64

	// ser is the mechanism's serialization table, shared with mon. mon
	// is nil until AttachMonitors: only a managing policy reads the
	// counters, so an unmanaged link skips every update.
	ser *serTable
	mon *Monitors

	// Runtime invariant auditing (nil = unaudited). The previous-sweep
	// energy readings back the monotonicity check.
	audit           *audit.Auditor
	auditPrevIdle   float64
	auditPrevActive float64
}

// New creates a link. The caller wires Deliver before any traffic flows.
func New(k *sim.Kernel, cfg Config, id int, dir Direction, owner, from, to, depth int) *Link {
	if cfg.Wakeup <= 0 {
		cfg.Wakeup = WakeupDefault
	}
	l := &Link{
		kernel:      k,
		cfg:         cfg,
		ID:          id,
		Dir:         dir,
		Owner:       owner,
		From:        from,
		To:          to,
		Depth:       depth,
		rooMode:     ROOFullMode,
		ser:         &serTables[cfg.Mechanism],
		lastAccount: k.Now(),
	}
	l.txDone.l, l.wake.l, l.wakeReq.l, l.bwCommit.l = l, l, l, l
	for m := 0; m < NumModes(cfg.Mechanism); m++ {
		l.wattsByMode[m] = cfg.FullWatts * PowerFactor(cfg.Mechanism, m)
	}
	if cfg.ROO {
		// A freshly built link is idle; open the idle interval so it can
		// power down before ever carrying traffic.
		l.enterIdle(k.Now())
	}
	return l
}

// legalTransition reports whether the ROO state lattice allows from→to:
// on→off, off→waking and waking→on. A link never jumps off→on without
// waking, and a wakeup always completes.
func legalTransition(from, to State) bool {
	switch from {
	case StateOn:
		return to == StateOff
	case StateOff:
		return to == StateWaking
	case StateWaking:
		return to == StateOn
	}
	return false
}

// setState is the single mutation point of the link's power-state
// machine. With an auditor attached every transition is validated against
// the legal lattice before it is applied; the state still changes so a
// buggy caller's behavior (not a cascade of secondary effects) is what
// the violation reports.
func (l *Link) setState(to State) {
	if l.audit != nil && !legalTransition(l.state, to) {
		l.audit.Reportf(l.component(), "state-lattice",
			"illegal transition %s -> %s (forced=%v q=%d transmitting=%v)",
			l.state, to, l.forcedFull, len(l.queue), l.transmitting)
	}
	l.state = to
}

// component names the link in audit violations.
func (l *Link) component() string { return fmt.Sprintf("link[%d]", l.ID) }

// energyHeadroom is the audit tolerance on the full-power energy bound:
// control-flit charges (ISP/AMS messages) add energy on top of the
// time-integral, and the paper budgets them as ~1% traffic.
const energyHeadroom = 1.02

// AttachAudit wires the runtime invariant auditor: state transitions are
// validated against the ROO lattice as they happen, enqueues are
// sample-checked, and a registered sweep bounds the buffer, the mode
// indices, and the energy accounting. Purely observational — an audited
// link schedules the same events and accumulates the same state as an
// unaudited one.
func (l *Link) AttachAudit(a *audit.Auditor) {
	l.audit = a
	l.auditPrevIdle, l.auditPrevActive = l.energyIdle, l.energyActive
	a.RegisterSweep(l.auditSweep)
}

// auditEnqueue is the sampled per-packet check: traffic direction must
// match the link's direction (request links carry downstream kinds).
func (l *Link) auditEnqueue(p *packet.Packet) {
	if p.Kind.Downstream() != (l.Dir == DirRequest) {
		l.audit.Reportf(l.component(), "direction-kind",
			"%v packet %d queued on %s link %d->%d", p.Kind, p.ID, l.Dir, l.From, l.To)
	}
}

// auditSweep is the registered whole-link invariant walk: buffer bounds
// honored or accounted, mode indices in range, energy non-negative,
// monotone since the previous sweep, and bounded by full power × elapsed
// time (stale-read safe: energies integrate only to lastAccount ≤ now).
func (l *Link) auditSweep(now sim.Time, report func(component, rule, detail string)) {
	c := l.component()
	if len(l.queue) > BufferEntries && l.overflows == 0 {
		report(c, "buffer-bound", fmt.Sprintf(
			"%d packets queued past the %d-entry buffer with no overflow accounted", len(l.queue), BufferEntries))
	}
	if l.maxQueue < len(l.queue) {
		report(c, "buffer-bound", fmt.Sprintf("high-water mark %d below live depth %d", l.maxQueue, len(l.queue)))
	}
	if nm := NumModes(l.cfg.Mechanism); l.bwMode < 0 || l.bwMode >= nm || l.bwTarget < 0 || l.bwTarget >= nm {
		report(c, "bw-mode-range", fmt.Sprintf("mode=%d target=%d outside [0,%d) for %s", l.bwMode, l.bwTarget, nm, l.cfg.Mechanism))
	}
	if l.rooMode < 0 || l.rooMode >= NumROOModes {
		report(c, "roo-mode-range", fmt.Sprintf("roo mode %d outside [0,%d)", l.rooMode, NumROOModes))
	}
	if l.state < StateOn || l.state > StateWaking {
		report(c, "state-range", fmt.Sprintf("state %d is not a lattice state", l.state))
	}
	if l.energyIdle < 0 || l.energyActive < 0 {
		report(c, "energy-sign", fmt.Sprintf("idle=%g active=%g J", l.energyIdle, l.energyActive))
	}
	if l.energyIdle < l.auditPrevIdle || l.energyActive < l.auditPrevActive {
		report(c, "energy-monotone", fmt.Sprintf("idle %g->%g active %g->%g J",
			l.auditPrevIdle, l.energyIdle, l.auditPrevActive, l.energyActive))
	}
	l.auditPrevIdle, l.auditPrevActive = l.energyIdle, l.energyActive
	if tot, bound := l.energyIdle+l.energyActive, l.cfg.FullWatts*now.Seconds()*energyHeadroom; tot > bound {
		report(c, "energy-bound", fmt.Sprintf("%g J exceeds full-power bound %g J at %s", tot, bound, now))
	}
	if l.totalBusy > now {
		report(c, "busy-bound", fmt.Sprintf("busy time %s exceeds elapsed %s", l.totalBusy, now))
	}
}

// Config returns the link's capabilities.
func (l *Link) Config() Config { return l.cfg }

// AttachMonitors builds the link's management counters (delay monitors,
// idle histogram, wakeup sampler, epoch counters). A policy that reads
// them attaches them before any traffic flows; a link without them, as
// under full power or static selection, skips every counter update.
func (l *Link) AttachMonitors() {
	l.mon = newMonitors(l.cfg.Mechanism, l.cfg.Wakeup)
}

// Mon exposes the management counters, or nil before AttachMonitors.
func (l *Link) Mon() *Monitors { return l.mon }

// State returns the current ROO state.
func (l *Link) State() State { return l.state }

// BWMode returns the committed bandwidth mode.
func (l *Link) BWMode() int { return l.bwMode }

// BWTarget returns the bandwidth mode in effect after any transition.
func (l *Link) BWTarget() int { return l.bwTarget }

// ROOMode returns the current idleness-threshold index.
func (l *Link) ROOMode() int { return l.rooMode }

// QueueLen returns the number of buffered packets.
func (l *Link) QueueLen() int { return len(l.queue) }

// MaxQueue returns the high-water mark of the buffer.
func (l *Link) MaxQueue() int { return l.maxQueue }

// Overflows counts enqueues beyond the 128-entry hardware buffer. The
// model keeps the packets (injection is bounded upstream) but reports the
// condition.
func (l *Link) Overflows() uint64 { return l.overflows }

// EnergyJoules returns the idle and active I/O energy so far.
func (l *Link) EnergyJoules() (idle, active float64) { return l.energyIdle, l.energyActive }

// BusyTime returns total time spent serializing flits.
func (l *Link) BusyTime() sim.Duration { return l.totalBusy }

// Bytes returns total payload bytes transferred.
func (l *Link) Bytes() uint64 { return l.bytes }

// String identifies the link for diagnostics.
func (l *Link) String() string {
	return fmt.Sprintf("link%d(%s %d->%d)", l.ID, l.Dir, l.From, l.To)
}

// effBWLabel is the mode whose bandwidth currently binds (during a
// transition the link runs at the slower of old and new).
func (l *Link) effBWLabel(now sim.Time) int {
	if now <= l.bwTransEnd && l.bwTarget != l.bwMode {
		if l.bwTarget > l.bwMode { // higher index = less bandwidth
			return l.bwTarget
		}
		return l.bwMode
	}
	return l.bwMode
}

// currentWatts is the instantaneous power draw.
func (l *Link) currentWatts(now sim.Time) float64 {
	if l.state == StateOff {
		return l.cfg.FullWatts * OffPowerFraction
	}
	// During a bandwidth transition both configurations are partially
	// powered; draw the higher of the two.
	w := l.wattsByMode[l.bwMode]
	if now <= l.bwTransEnd && l.bwTarget != l.bwMode {
		if w2 := l.wattsByMode[l.bwTarget]; w2 > w {
			w = w2
		}
	}
	return w
}

// account integrates energy and state-time up to now. Every state change
// calls it first.
func (l *Link) account(now sim.Time) {
	d := now - l.lastAccount
	if d <= 0 {
		l.lastAccount = now
		return
	}
	joules := l.currentWatts(now) * sim.Time(d).Seconds()
	if l.transmitting {
		l.energyActive += joules
		l.totalBusy += d
	} else {
		l.energyIdle += joules
	}
	l.stateTime[l.state] += d
	if l.mon != nil {
		ep := &l.mon.epoch
		if l.transmitting {
			ep.BusyTime += d
		}
		ep.TimeInBWMode[l.effBWLabel(now)] += d
		switch l.state {
		case StateOff:
			ep.OffTime += d
		case StateWaking:
			ep.WakingTime += d
		}
	}
	l.lastAccount = now
}

// StateTimes returns the cumulative per-state residency including the
// still-open interval since the last state change. Read-only: unlike
// account it does not advance the integrator, so sampling it cannot
// perturb energy accounting (currentWatts is evaluated at integration
// time, and integration instants stay exactly the set the simulation
// itself produces).
func (l *Link) StateTimes(now sim.Time) [NumStates]sim.Duration {
	st := l.stateTime
	if d := now - l.lastAccount; d > 0 {
		st[l.state] += d
	}
	return st
}

// Enqueue accepts a packet into the link buffer (reads ahead of writes)
// and starts transmission or wakeup as needed.
func (l *Link) Enqueue(p *packet.Packet) {
	now := l.kernel.Now()
	l.account(now)
	p.HopArrive = now
	if l.idleOpen {
		if l.mon != nil {
			l.mon.observeIdleEnd(now - l.idleSince)
		}
		l.idleOpen = false
	}
	l.offArmed = false // cancel any pending off-check
	if l.mon != nil {
		l.mon.observeArrival(now, p)
	}

	l.queue = append(l.queue, p)
	if p.Kind.IsRead() {
		// A read overtakes every queued write: slide it in ahead of the
		// first one.
		last := len(l.queue) - 1
		for i, q := range l.queue[:last] {
			if !q.Kind.IsRead() {
				copy(l.queue[i+1:], l.queue[i:last])
				l.queue[i] = p
				break
			}
		}
	}
	if len(l.queue) > l.maxQueue {
		l.maxQueue = len(l.queue)
	}
	if len(l.queue) > BufferEntries {
		l.overflows++
	}
	if l.audit.Sample() {
		l.auditEnqueue(p)
	}

	switch l.state {
	case StateOff:
		l.startWake()
	case StateOn:
		l.tryTransmit()
	}
	if l.OnEnqueue != nil {
		l.OnEnqueue()
	}
}

// tryTransmit starts serializing the head-of-queue packet if possible.
func (l *Link) tryTransmit() {
	if l.transmitting || len(l.queue) == 0 || l.state != StateOn {
		return
	}
	now := l.kernel.Now()
	l.account(now)
	p := l.queue[0]
	if len(l.queue) > 1 {
		copy(l.queue, l.queue[1:])
	}
	l.queue = l.queue[:len(l.queue)-1]
	l.transmitting = true

	mode := l.effBWLabel(now)
	end := now + l.ser.svc(p.Flits())[mode]
	l.txDone.p, l.txDone.end, l.txDone.serdes = p, end, l.ser.serdes[mode]
	l.kernel.ScheduleAction(end, &l.txDone)
}

// txDoneAction is the link's transmit-completion event. At most one
// transmission is in flight per link (the transmitting flag), so a single
// reusable value lives inline in the Link and scheduling it never
// allocates.
type txDoneAction struct {
	l      *Link
	p      *packet.Packet
	end    sim.Time
	serdes sim.Duration
}

func (a *txDoneAction) Act() { a.l.finishTransmit() }

// deliverAction carries a serialized packet through the SERDES/router
// pipeline to Deliver. Deliveries overlap (serialization of the next
// packet starts before the previous one lands), so these are pooled on a
// per-link free list rather than embedded.
type deliverAction struct {
	l *Link
	p *packet.Packet
}

func (a *deliverAction) Act() {
	l, p := a.l, a.p
	a.p = nil
	l.deliverFree = append(l.deliverFree, a)
	p.Hops++
	l.Deliver(p)
}

// finishTransmit completes serialization of the in-flight packet at its
// end time (the kernel's now): hand it to the delivery pipeline and start
// the next transmission.
func (l *Link) finishTransmit() {
	p, end, serdes := l.txDone.p, l.txDone.end, l.txDone.serdes
	l.account(end)
	l.transmitting = false
	l.bytes += uint64(p.Bytes())
	if l.mon != nil {
		l.mon.observeDeparture(p, end+serdes-p.HopArrive)
	}
	// Delivery includes the receiving module's router traversal, so
	// the receiver can act inline (one event per hop instead of two).
	// Every link's deliveries at one SERDES latency share the kernel's
	// fixed-delay FIFO; under DVFS the other modes' fall to the wheel.
	var da *deliverAction
	if n := len(l.deliverFree); n > 0 {
		da, l.deliverFree = l.deliverFree[n-1], l.deliverFree[:n-1]
	} else {
		da = &deliverAction{l: l}
	}
	da.p = p
	l.kernel.AfterFixed(serdes+RouterLatency(), da)
	if len(l.queue) > 0 {
		l.tryTransmit()
	} else {
		l.enterIdle(end)
	}
}

// enterIdle opens an idle interval and arms the ROO off-check.
func (l *Link) enterIdle(now sim.Time) {
	l.idleSince = now
	l.idleOpen = true
	l.armOffCheck(now, ROOThresholds[l.rooMode])
}

// armOffCheck arms a turn-off attempt after the idleness threshold. It
// supersedes any earlier arm and reserves the check's position in the
// kernel's total order — one seq, exactly what scheduling it would
// consume — but files an event only when no cover is pending at or
// before the deadline. A pending cover that fires before the live
// position re-files itself there, so a link re-armed on every idle
// transition keeps one event queued instead of one per arm, and the
// live check still dispatches exactly where a fresh event would have.
// A cover past the deadline (the threshold fell) is orphaned and retires
// when it fires; the actions come from a per-link free list.
func (l *Link) armOffCheck(now sim.Time, after sim.Duration) {
	if !l.cfg.ROO || l.forcedFull {
		return
	}
	l.offArmed = true
	l.offAt = now + after
	l.offKSeq = l.kernel.ReserveSeq()
	if l.cover != nil && l.coverAt <= l.offAt {
		return
	}
	var a *offCheckAction
	if n := len(l.offFree); n > 0 {
		a, l.offFree = l.offFree[n-1], l.offFree[:n-1]
	} else {
		a = &offCheckAction{l: l}
	}
	l.fileCover(a)
}

// fileCover files a as the cover at the live off-check position.
func (l *Link) fileCover(a *offCheckAction) {
	l.cover, l.coverAt, l.coverSeq = a, l.offAt, l.offKSeq
	l.kernel.ScheduleActionSeq(l.offAt, l.offKSeq, a)
}

// offCheckAction is a pooled ROO off-check event. Only the link's
// current cover does anything: it retires if the live arm was cancelled
// (the link saw traffic or changed state), moves on to the live position
// if that lies later, and runs the turn-off attempt once it is there.
type offCheckAction struct{ l *Link }

func (a *offCheckAction) Act() {
	l := a.l
	if a != l.cover { // orphaned: a shorter threshold filed its own cover
		l.offFree = append(l.offFree, a)
		return
	}
	if l.offArmed && l.coverSeq != l.offKSeq {
		l.fileCover(a) // the live check lies later: move there
		return
	}
	l.cover = nil
	l.offFree = append(l.offFree, a)
	if !l.offArmed || l.state != StateOn || l.transmitting || len(l.queue) > 0 {
		return
	}
	if l.HoldOn != nil && l.HoldOn() {
		// Vetoed; try again one threshold later (the veto holder
		// also calls MaybeTurnOff when its condition clears).
		l.armOffCheck(l.kernel.Now(), ROOThresholds[l.rooMode])
		return
	}
	t := l.kernel.Now()
	l.account(t)
	l.setState(StateOff)
	if l.OnTurnOff != nil {
		l.OnTurnOff()
	}
}

// MaybeTurnOff turns the link off immediately if it is on, idle past its
// threshold, and not vetoed. Network-aware ROO calls this when a veto
// condition clears (DRAM drained, downstream links all off).
func (l *Link) MaybeTurnOff() {
	if !l.cfg.ROO || l.forcedFull || l.state != StateOn || l.transmitting || len(l.queue) > 0 {
		return
	}
	now := l.kernel.Now()
	if !l.idleOpen || now-l.idleSince < ROOThresholds[l.rooMode] {
		return
	}
	if l.HoldOn != nil && l.HoldOn() {
		return
	}
	l.account(now)
	l.setState(StateOff)
	if l.OnTurnOff != nil {
		l.OnTurnOff()
	}
}

// startWake begins the off→waking→on sequence.
func (l *Link) startWake() {
	if l.state != StateOff {
		return
	}
	now := l.kernel.Now()
	l.account(now)
	l.setState(StateWaking)
	if l.OnWakeStart != nil {
		l.OnWakeStart()
	}
	l.kernel.ScheduleAction(now+l.cfg.Wakeup, &l.wake)
}

// wakeAction is the wake-completion event. The state machine admits one
// wake at a time (off→waking, and waking ends before the next off), so a
// single inline value suffices.
type wakeAction struct{ l *Link }

func (a *wakeAction) Act() { a.l.finishWake() }

// finishWake completes resynchronization: the link comes on and drains
// its buffer.
func (l *Link) finishWake() {
	t := l.kernel.Now()
	l.account(t)
	l.setState(StateOn)
	if l.mon != nil {
		l.mon.epoch.Wakeups++
	}
	if len(l.queue) > 0 {
		l.tryTransmit()
	} else {
		l.enterIdle(t)
	}
}

// Wake proactively powers the link on (or keeps it on). On an off link it
// starts the wakeup; on an on link it re-arms the off-check so the link
// stays up for at least another threshold.
func (l *Link) Wake() {
	switch l.state {
	case StateOff:
		l.startWake()
	case StateOn:
		if !l.transmitting && len(l.queue) == 0 {
			l.armOffCheck(l.kernel.Now(), ROOThresholds[l.rooMode])
		}
	}
}

// wakeReqAction is a scheduled proactive Wake. It is stateless, so the
// one inline value can back any number of concurrently scheduled wakes.
type wakeReqAction struct{ l *Link }

func (a *wakeReqAction) Act() { a.l.Wake() }

// WakeAction returns an Action that calls Wake when it fires. Scheduling
// it allocates nothing, where the method value l.Wake would allocate a
// closure each time.
func (l *Link) WakeAction() sim.Action { return &l.wakeReq }

// SetBWMode requests bandwidth mode m; the change completes after the
// mechanism's transition latency, during which the link runs at the
// slower of the two modes and draws the higher power.
func (l *Link) SetBWMode(m int) {
	if l.cfg.Mechanism == MechNone || m == l.bwTarget {
		return
	}
	if m < 0 || m >= NumModes(l.cfg.Mechanism) {
		panic(fmt.Sprintf("link: bandwidth mode %d out of range", m))
	}
	now := l.kernel.Now()
	l.account(now)
	// Commit any finished transition first.
	if now >= l.bwTransEnd {
		l.bwMode = l.bwTarget
	}
	l.bwTarget = m
	end := now + TransitionLatency(l.cfg.Mechanism)
	if end != l.bwTransEnd {
		l.bwTransEnd, l.bwReqs, l.bwFired = end, 0, 0
		l.bwFirst = [NumBWModes]int32{}
	}
	l.bwReqs++
	if l.bwFirst[m] == 0 {
		l.bwFirst[m] = l.bwReqs
	}
	l.kernel.ScheduleAction(end, &l.bwCommit)
}

// bwCommitAction commits a bandwidth transition when it ends, one event
// per SetBWMode request. A request is superseded when a later one moved
// the transition's end or changed its target; only the first request
// whose mode is the final target commits, at its own seq, and any later
// one finds the mode already committed. The requests that share the live
// end were all made at one instant, so the commit events fire in request
// order and bwFired numbers them.
type bwCommitAction struct{ l *Link }

func (a *bwCommitAction) Act() {
	l := a.l
	now := l.kernel.Now()
	if now != l.bwTransEnd {
		return // superseded by a request at a later instant
	}
	l.bwFired++
	if l.bwFired < l.bwFirst[l.bwTarget] {
		return // superseded by a later request at the same instant
	}
	l.account(now)
	l.bwMode = l.bwTarget
}

// SetROOMode selects the idleness-threshold index.
func (l *Link) SetROOMode(m int) {
	if m < 0 || m >= NumROOModes {
		panic(fmt.Sprintf("link: ROO mode %d out of range", m))
	}
	l.rooMode = m
	if l.state == StateOn && !l.transmitting && len(l.queue) == 0 && l.idleOpen {
		l.armOffCheck(l.kernel.Now(), ROOThresholds[m])
	}
}

// ForceFullPower puts the link in full power until ClearForce (the §V
// AMS-violation response): full bandwidth, ROO suspended, woken if off.
func (l *Link) ForceFullPower() {
	l.forcedFull = true
	l.SetBWMode(0)
	l.offArmed = false // cancel the pending off-check
	if l.state == StateOff {
		l.startWake()
	}
}

// Forced reports whether the link is in the violation full-power state.
func (l *Link) Forced() bool { return l.forcedFull }

// ClearForce ends the violation state at an epoch boundary.
func (l *Link) ClearForce() {
	if !l.forcedFull {
		return
	}
	l.forcedFull = false
	if l.state == StateOn && !l.transmitting && len(l.queue) == 0 {
		l.enterIdle(l.kernel.Now())
	}
}

// ChargeControlFlits adds the transmission energy of n management flits
// (ISP messages, AMS requests) to the link's active-I/O energy without
// occupying the data path; the paper treats this traffic as negligible,
// and charging it keeps the power accounting honest.
func (l *Link) ChargeControlFlits(n int) {
	seconds := (sim.Duration(n) * FlitTimeFull).Seconds()
	l.energyActive += seconds * l.cfg.FullWatts
}

// FinishAccounting integrates energy up to now; call once at the end of a
// simulation before reading energies.
func (l *Link) FinishAccounting() {
	l.account(l.kernel.Now())
}
