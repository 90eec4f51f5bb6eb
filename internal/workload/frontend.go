package workload

import (
	"fmt"

	"memnet/internal/link"
	"memnet/internal/metrics"
	"memnet/internal/network"
	"memnet/internal/packet"
	"memnet/internal/sim"
)

// FrontEnd is the processor-side request generator substituting the
// paper's 16-core gem5 model (Table II). It is a closed-loop,
// limited-MLP issue engine: a pool of outstanding-miss slots (the cores'
// aggregate MSHRs) each repeatedly issues an access and waits for its
// completion, gated by an ON/OFF burst modulator. Closed-loop issue is
// what gives the simulator the paper's feedback: added memory latency
// directly lowers achieved throughput, which Figs. 12/17/18 measure.
//
// The slot count is calibrated by Little's law so the busier direction of
// the processor link reaches the profile's target channel utilization
// under full-power links.
type FrontEndConfig struct {
	// SlotsOverride forces the outstanding-access slot count (0 = auto).
	SlotsOverride int
	// Seed drives all randomness of this front end.
	Seed uint64
	// Timeout arms the outstanding-request table: every issued access gets
	// a deadline, and a read whose response never arrives (severed link,
	// dropped packet) is retried up to MaxRetries times with doubling
	// backoff, then completed as a timeout error so its slot keeps
	// working. Zero disables the table entirely and preserves the legacy
	// wait-forever behavior byte for byte.
	Timeout sim.Duration
	// MaxRetries bounds timeout-driven re-issues per read (0 = no retry:
	// first timeout abandons the access).
	MaxRetries int
}

// DefaultFrontEndConfig is the front end of Table II's 16-core
// processor: the cores enter the model only through the slot count,
// which is calibrated from the profile (see FrontEndConfig).
func DefaultFrontEndConfig(seed uint64) FrontEndConfig {
	return FrontEndConfig{Seed: seed}
}

// pendingRead is one slot's outstanding-read table entry.
type pendingRead struct {
	id      uint64 // packet ID of the current attempt
	addr    uint64
	retries int
	seq     uint64 // bumped on every state change; stale timeout events no-op
	active  bool
}

// FrontEndFaultStats aggregates the timeout machinery's counters.
type FrontEndFaultStats struct {
	// ReadTimeouts counts read deadline expiries (including ones that led
	// to a successful retry); Retries of them were re-issued, Abandoned
	// exhausted their retry budget and completed as timeout errors.
	ReadTimeouts uint64
	Retries      uint64
	Abandoned    uint64
	// ErrorReads/ErrorWrites count network error responses received.
	ErrorReads  uint64
	ErrorWrites uint64
	// WriteTimeouts counts write credits reclaimed by deadline.
	WriteTimeouts uint64
	// LateResponses counts completions that arrived after their request
	// had already timed out or been superseded (discarded).
	LateResponses uint64
	// RecoveredReads counts reads that timed out at least once but whose
	// retry ultimately returned data — requests the recovery path (link
	// repair, retraining) saved rather than lost.
	RecoveredReads uint64
}

// FrontEnd drives one network with one workload profile.
type FrontEnd struct {
	kernel  *sim.Kernel
	net     *network.Network
	profile *Profile
	rng     *sim.RNG
	sampler *Sampler

	slots      int
	jitterMean float64 // ns
	estLatency sim.Duration
	targetRate float64 // accesses/s

	// Writes are posted: a slot issues one and continues immediately,
	// bounded by writeCap credits so in-flight traffic stays finite.
	// Slots that hit the cap park until a write retires.
	writeCap       int
	inFlightWrites int
	writeParked    []int

	onPhase bool
	stopped bool
	parked  []int

	issuedReads  uint64
	issuedWrites uint64

	// Completion counters (maintained in both modes; they feed the
	// watchdog's progress/outstanding probes without touching the event
	// schedule).
	completedReads  uint64
	completedWrites uint64

	// Outstanding-request table (active only when timeout > 0). Request
	// packet IDs match completions (Packet.Req) to table entries, so late
	// or duplicate responses are discarded.
	timeout       sim.Duration
	maxRetries    int
	reads         []pendingRead
	pendingWrites map[uint64]struct{} // keyed access only — never iterated
	timedOutIDs   []uint64
	faults        FrontEndFaultStats

	// Pooled event actions: one reusable issue event per slot (a slot has
	// at most one pending issue/resume at a time), singleton burst-cycle
	// events, and free lists for the overlapping timeout deadlines.
	issueActs   []slotIssueAction
	cycleAct    burstCycleAction
	offAct      offPhaseAction
	timeoutFree []*readTimeoutAction
	wtoFree     []*writeTimeoutAction
}

// slotIssueAction is slot's reusable issue/resume event.
type slotIssueAction struct {
	fe   *FrontEnd
	slot int
}

func (a *slotIssueAction) Act() { a.fe.issue(a.slot) }

// burstCycleAction starts the next ON phase; offPhaseAction ends it. One
// of each is pending at a time, so both live inline in the FrontEnd.
type burstCycleAction struct{ fe *FrontEnd }

func (a *burstCycleAction) Act() { a.fe.burstCycle() }

type offPhaseAction struct{ fe *FrontEnd }

func (a *offPhaseAction) Act() { a.fe.onPhase = false }

// readTimeoutAction is a pooled read deadline. Stale deadlines overlap
// (every retry arms a new one and bumps seq to cancel the old), so these
// come from a free list; each fires exactly once and returns itself.
type readTimeoutAction struct {
	fe   *FrontEnd
	slot int
	seq  uint64
}

func (a *readTimeoutAction) Act() {
	fe, slot, seq := a.fe, a.slot, a.seq
	fe.timeoutFree = append(fe.timeoutFree, a)
	fe.readTimeout(slot, seq)
}

// writeTimeoutAction is the pooled write-credit deadline.
type writeTimeoutAction struct {
	fe *FrontEnd
	id uint64
}

func (a *writeTimeoutAction) Act() {
	fe, id := a.fe, a.id
	fe.wtoFree = append(fe.wtoFree, a)
	fe.writeTimeout(id)
}

// channelBandwidthBytesPerSec is one direction of a full-width link.
func channelBandwidthBytesPerSec() float64 {
	return float64(link.LanesPerLink) * link.LaneRateGbps * 1e9 / 8
}

// bytesPerAccess returns average down- and upstream bytes per access.
func bytesPerAccess(readFrac float64) (down, up float64) {
	readReq := float64(packet.ReadReq.Flits() * packet.FlitBytes)
	writeReq := float64(packet.WriteReq.Flits() * packet.FlitBytes)
	readResp := float64(packet.ReadResp.Flits() * packet.FlitBytes)
	down = readFrac*readReq + (1-readFrac)*writeReq
	up = readFrac * readResp
	return down, up
}

// estimateReadLatency returns the unloaded end-to-end read latency for p
// on net: DRAM nominal latency plus the module-fraction-weighted hop cost.
func estimateReadLatency(net *network.Network, p *Profile) sim.Duration {
	chunkGB := int(net.Cfg.ChunkBytes >> 30)
	if chunkGB < 1 {
		chunkGB = 1
	}
	fracs := p.ModuleFractions(chunkGB)
	avgDepth := 0.0
	for i, f := range fracs {
		if i < net.Topo.N() {
			avgDepth += f * float64(net.Topo.Depth(i))
		} else {
			avgDepth += f * float64(net.Topo.MaxDepth())
		}
	}
	perHopDown := link.RouterLatency() + link.SERDESBase + link.FlitTimeFull
	perHopUp := link.RouterLatency() + link.SERDESBase + 5*link.FlitTimeFull
	dramLat := net.Cfg.DRAM.NominalReadLatency()
	return dramLat + sim.Duration(avgDepth*float64(perHopDown+perHopUp))
}

// NewFrontEnd builds and calibrates a front end for p over net, wiring the
// network's completion callbacks.
func NewFrontEnd(k *sim.Kernel, net *network.Network, p *Profile, cfg FrontEndConfig) (*FrontEnd, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	fe := &FrontEnd{
		kernel:     k,
		net:        net,
		profile:    p,
		rng:        sim.NewRNG(cfg.Seed),
		sampler:    NewSampler(p, packet.LineBytes),
		onPhase:    true,
		timeout:    cfg.Timeout,
		maxRetries: cfg.MaxRetries,
	}
	if cfg.Timeout > 0 {
		fe.pendingWrites = make(map[uint64]struct{})
	}

	// --- Calibration ---
	down, up := bytesPerAccess(p.ReadFraction)
	busier := down
	if up > busier {
		busier = up
	}
	fe.targetRate = p.TargetChannelUtil * channelBandwidthBytesPerSec() / busier

	// Queueing/management margin. Kept small: the closed loop divides
	// slots by *actual* latency, so overestimating the latency here
	// overshoots the utilization target by the same factor.
	estLatency := estimateReadLatency(net, p)
	fe.estLatency = estLatency + estLatency/10

	fe.jitterMean = 0.05 * fe.estLatency.Nanoseconds()
	if cfg.SlotsOverride > 0 {
		fe.slots = cfg.SlotsOverride
	} else {
		// Little's law, scaled so the ON phase carries the whole load.
		// A slot only blocks on reads (writes are posted), so one slot
		// cycle costs readFrac × read latency plus the think jitter.
		perSlotCycle := (p.ReadFraction*fe.estLatency.Seconds() +
			fe.jitterMean*1e-9) * 1.05
		slots := fe.targetRate * perSlotCycle / p.BurstDuty
		fe.slots = int(slots + 0.5)
		if fe.slots < 2 {
			fe.slots = 2
		}
	}
	fe.writeCap = 2 * fe.slots
	if fe.timeout > 0 {
		fe.reads = make([]pendingRead, fe.slots)
	}
	fe.issueActs = make([]slotIssueAction, fe.slots)
	for s := range fe.issueActs {
		fe.issueActs[s] = slotIssueAction{fe: fe, slot: s}
	}
	fe.cycleAct.fe, fe.offAct.fe = fe, fe
	net.OnReadComplete = fe.HandleReadComplete
	net.OnWriteComplete = fe.HandleWriteComplete
	return fe, nil
}

// Slots returns the calibrated outstanding-access slot count.
func (fe *FrontEnd) Slots() int { return fe.slots }

// TargetRate returns the calibrated access rate (accesses/s).
func (fe *FrontEnd) TargetRate() float64 { return fe.targetRate }

// Issued returns issued reads and writes so far.
func (fe *FrontEnd) Issued() (reads, writes uint64) {
	return fe.issuedReads, fe.issuedWrites
}

// Start launches the burst modulator and all issue slots. Slots start
// staggered across one estimated latency to avoid lockstep.
func (fe *FrontEnd) Start() {
	if fe.profile.BurstDuty < 1 {
		fe.burstCycle()
	}
	for s := 0; s < fe.slots; s++ {
		delay := sim.Duration(fe.rng.Float64() * float64(fe.estLatency))
		fe.kernel.AfterAction(delay, &fe.issueActs[s])
	}
}

// burstCycle runs one ON/OFF toggle and reschedules itself forever.
func (fe *FrontEnd) burstCycle() {
	period := fe.profile.BurstPeriod
	onSpan := sim.Duration(float64(period) * fe.profile.BurstDuty)
	fe.onPhase = true
	// Release parked slots with a little jitter so the burst edge is
	// sharp but not a single-instant spike.
	for _, slot := range fe.parked {
		d := sim.FromNanos(fe.rng.Exp(fe.jitterMean / 4))
		fe.kernel.AfterAction(d, &fe.issueActs[slot])
	}
	fe.parked = fe.parked[:0]
	fe.kernel.AfterAction(onSpan, &fe.offAct)
	fe.kernel.AfterAction(period, &fe.cycleAct)
}

// Stop parks every slot permanently: no further accesses are issued, but
// in-flight requests and their timeout machinery keep running so the
// system drains to quiescence. Used by soak tests that need a bounded
// outstanding set before checking conservation.
func (fe *FrontEnd) Stop() { fe.stopped = true }

// issue makes slot perform its next access, or parks it during OFF or on
// write-credit exhaustion.
func (fe *FrontEnd) issue(slot int) {
	if fe.stopped {
		return
	}
	if !fe.onPhase {
		fe.parked = append(fe.parked, slot)
		return
	}
	addr := fe.sampler.Sample(fe.rng)
	if fe.rng.Float64() < fe.profile.ReadFraction {
		fe.issuedReads++
		if fe.timeout > 0 {
			fe.startRead(slot, addr)
		} else {
			fe.net.InjectRead(addr, slot)
		}
		return // resumed by HandleReadComplete (or a timeout)
	}
	if fe.inFlightWrites >= fe.writeCap {
		fe.writeParked = append(fe.writeParked, slot)
		return // resumed by HandleWriteComplete
	}
	fe.inFlightWrites++
	fe.issuedWrites++
	if fe.timeout > 0 {
		fe.startWrite(addr)
	} else {
		fe.net.InjectWrite(addr, -1)
	}
	// Writes are posted — the slot continues after its think jitter.
	fe.resume(slot)
}

// startRead issues a tracked read for slot and arms its deadline.
func (fe *FrontEnd) startRead(slot int, addr uint64) {
	pr := &fe.reads[slot]
	pr.seq++
	pr.active = true
	pr.addr = addr
	pr.retries = 0
	pr.id = fe.net.InjectReadID(addr, slot)
	fe.armReadTimeout(slot, fe.timeout)
}

// armReadTimeout schedules the deadline for slot's current attempt. The
// carried seq makes the event a no-op if the attempt resolves first.
func (fe *FrontEnd) armReadTimeout(slot int, d sim.Duration) {
	var a *readTimeoutAction
	if n := len(fe.timeoutFree); n > 0 {
		a, fe.timeoutFree = fe.timeoutFree[n-1], fe.timeoutFree[:n-1]
	} else {
		a = &readTimeoutAction{fe: fe}
	}
	a.slot, a.seq = slot, fe.reads[slot].seq
	fe.kernel.AfterAction(d, a)
}

// readTimeout fires when slot's read deadline expires: retry with doubled
// backoff while budget remains, then complete the access as a timeout
// error so the slot is never stranded by a lost response.
func (fe *FrontEnd) readTimeout(slot int, seq uint64) {
	pr := &fe.reads[slot]
	if !pr.active || pr.seq != seq {
		return // completed or superseded before the deadline
	}
	fe.faults.ReadTimeouts++
	fe.timedOutIDs = append(fe.timedOutIDs, pr.id)
	if pr.retries < fe.maxRetries {
		pr.retries++
		fe.faults.Retries++
		pr.seq++
		pr.id = fe.net.InjectReadID(pr.addr, slot)
		fe.armReadTimeout(slot, fe.timeout<<uint(pr.retries))
		return
	}
	pr.active = false
	pr.seq++
	fe.faults.Abandoned++
	fe.completedReads++
	fe.resume(slot)
}

// startWrite issues a tracked write with a deadline that reclaims its
// credit if no completion (retire or WriteErr) ever arrives, so a lost
// write cannot leak write-cap credits and starve the writers.
func (fe *FrontEnd) startWrite(addr uint64) {
	id := fe.net.InjectWriteID(addr, -1)
	fe.pendingWrites[id] = struct{}{}
	var a *writeTimeoutAction
	if n := len(fe.wtoFree); n > 0 {
		a, fe.wtoFree = fe.wtoFree[n-1], fe.wtoFree[:n-1]
	} else {
		a = &writeTimeoutAction{fe: fe}
	}
	a.id = id
	fe.kernel.AfterAction(fe.timeout, a)
}

// writeTimeout reclaims the credit of a write whose completion never
// arrived.
func (fe *FrontEnd) writeTimeout(id uint64) {
	if _, ok := fe.pendingWrites[id]; !ok {
		return // completed in time
	}
	delete(fe.pendingWrites, id)
	fe.faults.WriteTimeouts++
	fe.releaseWriteCredit()
}

// resume schedules slot's next access after its think jitter.
func (fe *FrontEnd) resume(slot int) {
	think := sim.FromNanos(fe.rng.Exp(fe.jitterMean))
	fe.kernel.AfterAction(think, &fe.issueActs[slot])
}

// HandleReadComplete resumes the slot that owned the finished read. With
// the outstanding-request table armed, the completion (data or error)
// must match the slot's current attempt; late responses to requests that
// already timed out are discarded.
func (fe *FrontEnd) HandleReadComplete(p *packet.Packet) {
	if p.Core < 0 {
		return
	}
	if fe.timeout <= 0 {
		fe.completedReads++
		fe.resume(p.Core)
		return
	}
	pr := &fe.reads[p.Core]
	if !pr.active || p.Req != pr.id {
		fe.faults.LateResponses++
		return
	}
	pr.active = false
	pr.seq++ // disarm the pending deadline
	if p.Kind.IsError() {
		fe.faults.ErrorReads++
	} else if pr.retries > 0 {
		fe.faults.RecoveredReads++ // a retried read came back with data
	}
	fe.completedReads++
	fe.resume(p.Core)
}

// HandleWriteComplete frees a write credit and revives a parked writer.
func (fe *FrontEnd) HandleWriteComplete(p *packet.Packet) {
	if fe.timeout <= 0 {
		fe.releaseWriteCredit()
		return
	}
	// A retired write completes with its own request packet; a failed one
	// with a WriteErr referencing it.
	id := p.ID
	if p.Kind.IsError() {
		id = p.Req
		fe.faults.ErrorWrites++
	}
	if _, ok := fe.pendingWrites[id]; !ok {
		fe.faults.LateResponses++ // deadline already reclaimed the credit
		return
	}
	delete(fe.pendingWrites, id)
	fe.releaseWriteCredit()
}

// releaseWriteCredit returns one write credit and revives a parked writer.
func (fe *FrontEnd) releaseWriteCredit() {
	fe.inFlightWrites--
	fe.completedWrites++
	if len(fe.writeParked) > 0 {
		slot := fe.writeParked[0]
		fe.writeParked = fe.writeParked[:copy(fe.writeParked, fe.writeParked[1:])]
		fe.resume(slot)
	}
}

// Outstanding counts accesses issued but not yet terminally resolved —
// the processor-side probe the watchdog uses.
func (fe *FrontEnd) Outstanding() int {
	return int(fe.issuedReads-fe.completedReads) + fe.inFlightWrites
}

// Progress is a monotone completion counter (data, error, or timeout
// resolution all count) — the watchdog's progress probe.
func (fe *FrontEnd) Progress() uint64 {
	return fe.completedReads + fe.completedWrites
}

// AttachMetrics registers the front end's issue/complete time-series on
// reg (nil-safe: a nil registry registers nothing). Issue and completion
// counters export as per-interval deltas, i.e. rates × interval.
func (fe *FrontEnd) AttachMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("frontend.issued_reads", func() float64 { return float64(fe.issuedReads) })
	reg.Counter("frontend.issued_writes", func() float64 { return float64(fe.issuedWrites) })
	reg.Counter("frontend.completed", func() float64 { return float64(fe.Progress()) })
	reg.Gauge("frontend.outstanding", func() float64 { return float64(fe.Outstanding()) })
}

// FaultStats returns the timeout machinery's counters.
func (fe *FrontEnd) FaultStats() FrontEndFaultStats { return fe.faults }

// TimedOutIDs returns the packet IDs of every read attempt whose deadline
// expired, in expiry order — the determinism fixture for fault runs.
func (fe *FrontEnd) TimedOutIDs() []uint64 { return fe.timedOutIDs }

// String documents the substituted processor configuration (Table II).
func (fe *FrontEnd) String() string {
	return fmt.Sprintf("frontend{%s: slots=%d target=%.1fM acc/s estLat=%s duty=%.0f%%}",
		fe.profile.Name, fe.slots, fe.targetRate/1e6, fe.estLatency, fe.profile.BurstDuty*100)
}
