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
	// Seed drives all randomness of this front end.
	Seed uint64
}

// DefaultFrontEndConfig is the front end of Table II's 16-core
// processor: the cores enter the model only through the slot count,
// which is calibrated from the profile (see FrontEndConfig).
func DefaultFrontEndConfig(seed uint64) FrontEndConfig {
	return FrontEndConfig{Seed: seed}
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
	parked  []int

	issuedReads  uint64
	issuedWrites uint64

	// Completion counters, read by the metrics sampler.
	completedReads  uint64
	completedWrites uint64

	// Pooled event actions: one reusable issue event per slot (a slot has
	// at most one pending issue/resume at a time) and the singleton
	// burst-cycle events.
	issueActs []slotIssueAction
	cycleAct  burstCycleAction
	offAct    offPhaseAction
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
		kernel:  k,
		net:     net,
		profile: p,
		rng:     sim.NewRNG(cfg.Seed),
		sampler: NewSampler(p, packet.LineBytes),
		onPhase: true,
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
	// Little's law, scaled so the ON phase carries the whole load. A slot
	// only blocks on reads (writes are posted), so one slot cycle costs
	// readFrac × read latency plus the think jitter.
	perSlotCycle := (p.ReadFraction*fe.estLatency.Seconds() +
		fe.jitterMean*1e-9) * 1.05
	slots := fe.targetRate * perSlotCycle / p.BurstDuty
	fe.slots = int(slots + 0.5)
	if fe.slots < 2 {
		fe.slots = 2
	}
	fe.writeCap = 2 * fe.slots
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

// issue makes slot perform its next access, or parks it during OFF or on
// write-credit exhaustion.
func (fe *FrontEnd) issue(slot int) {
	if !fe.onPhase {
		fe.parked = append(fe.parked, slot)
		return
	}
	addr := fe.sampler.Sample(fe.rng)
	if fe.rng.Float64() < fe.profile.ReadFraction {
		fe.issuedReads++
		fe.net.InjectRead(addr, slot)
		return // resumed by HandleReadComplete
	}
	if fe.inFlightWrites >= fe.writeCap {
		fe.writeParked = append(fe.writeParked, slot)
		return // resumed by HandleWriteComplete
	}
	fe.inFlightWrites++
	fe.issuedWrites++
	fe.net.InjectWrite(addr, -1)
	// Writes are posted — the slot continues after its think jitter.
	fe.resume(slot)
}

// resume schedules slot's next access after its think jitter.
func (fe *FrontEnd) resume(slot int) {
	think := sim.FromNanos(fe.rng.Exp(fe.jitterMean))
	fe.kernel.AfterAction(think, &fe.issueActs[slot])
}

// HandleReadComplete resumes the slot that owned the finished read.
func (fe *FrontEnd) HandleReadComplete(p *packet.Packet) {
	if p.Core < 0 {
		return
	}
	fe.completedReads++
	fe.resume(p.Core)
}

// HandleWriteComplete frees a write credit and revives a parked writer.
func (fe *FrontEnd) HandleWriteComplete(p *packet.Packet) {
	fe.inFlightWrites--
	fe.completedWrites++
	if len(fe.writeParked) > 0 {
		slot := fe.writeParked[0]
		fe.writeParked = fe.writeParked[:copy(fe.writeParked, fe.writeParked[1:])]
		fe.resume(slot)
	}
}

// Outstanding counts accesses issued but not yet completed.
func (fe *FrontEnd) Outstanding() int {
	return int(fe.issuedReads-fe.completedReads) + fe.inFlightWrites
}

// Progress is a monotone completion counter.
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

// String documents the substituted processor configuration (Table II).
func (fe *FrontEnd) String() string {
	return fmt.Sprintf("frontend{%s: slots=%d target=%.1fM acc/s estLat=%s duty=%.0f%%}",
		fe.profile.Name, fe.slots, fe.targetRate/1e6, fe.estLatency, fe.profile.BurstDuty*100)
}
