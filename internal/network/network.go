// Package network assembles HMC modules, their DRAM stacks, and the
// unidirectional link pairs into a simulated memory network: routing,
// vault dispatch, read-response generation, and whole-network energy and
// traffic accounting.
package network

import (
	"fmt"

	"memnet/internal/audit"
	"memnet/internal/dram"
	"memnet/internal/link"
	"memnet/internal/packet"
	"memnet/internal/power"
	"memnet/internal/sim"
	"memnet/internal/stats"
	"memnet/internal/topology"
)

// Config selects the network build parameters.
type Config struct {
	// Mechanism and ROO select every link's power-control capabilities.
	Mechanism link.Mechanism
	ROO       bool
	// Wakeup is the ROO wakeup latency (defaults to 14 ns).
	Wakeup sim.Duration
	// ChunkBytes is the contiguous slice of physical address space mapped
	// to each module: 4 GB in the small network study, 1 GB in the big.
	ChunkBytes uint64
	// Interleave switches to page-interleaved address mapping (used by
	// the §VII-A static baseline), one 4 KiB page (pageBytes) to a module.
	Interleave bool
	// DRAM configures every module's DRAM stack.
	DRAM dram.Config
	// Power overrides the [12] power model for every module (nil = the
	// published operating point, power.DefaultModel). The calibration
	// harness perturbs it for sensitivity sweeps.
	Power *power.Model
}

// pageBytes is the grain of page-interleaved address mapping.
const pageBytes = 4 << 10

// DefaultConfig returns the paper's small-network configuration.
func DefaultConfig() Config {
	return Config{
		Mechanism:  link.MechNone,
		ChunkBytes: 4 << 30,
		DRAM:       dram.DefaultConfig(),
		Wakeup:     link.WakeupDefault,
	}
}

// Module is one HMC: DRAM stack plus its two connectivity links (the
// request link entering it from upstream and the response link leaving it
// upstream). Per §V-A, a module's management owns exactly these two links.
type Module struct {
	ID     int
	DRAM   *dram.HMCDRAM
	UpReq  *link.Link // upstream neighbour -> this module (request)
	UpResp *link.Link // this module -> upstream neighbour (response)
	Params power.ModuleParams

	net         *Network
	pendingDRAM []*packet.Packet
	flitsRouted uint64
	doneFree    []*dramDone
}

// dramDone is the pooled DRAM-completion object for one request packet:
// it emits the read response (or retires the write), recycles the request
// packet, and drains any vault-full backlog. One fires per accepted
// access, so each returns itself to the module's free list exactly once.
type dramDone struct {
	m      *Module
	p      *packet.Packet
	isRead bool
}

func (dd *dramDone) AccessDone() {
	m, p, isRead := dd.m, dd.p, dd.isRead
	dd.p = nil
	m.doneFree = append(m.doneFree, dd)
	if isRead {
		m.sendResponse(p)
		m.net.putPacket(p)
	} else {
		m.net.writesDone++
		m.net.writeHops += uint64(p.Hops)
		if m.net.OnWriteComplete != nil {
			m.net.OnWriteComplete(p)
		}
		m.net.putPacket(p)
	}
	m.drainPending()
}

// FlitsRouted returns the flits this module's router has handled.
func (m *Module) FlitsRouted() uint64 { return m.flitsRouted }

// Network is a fully wired memory network attached to one processor
// channel.
type Network struct {
	Kernel  *sim.Kernel
	Topo    *topology.Topology
	Cfg     Config
	Modules []*Module
	Links   []*link.Link // 2 per module: [2i]=UpReq, [2i+1]=UpResp

	// OnReadComplete fires when a read's response reaches the processor;
	// OnWriteComplete fires when a write retires at its DRAM, so the
	// issuer can release the write credit.
	OnReadComplete  func(*packet.Packet)
	OnWriteComplete func(*packet.Packet)
	// OnInject observes every injected packet (trace recording).
	OnInject func(*packet.Packet)

	buildTime  sim.Time
	pktFree    []*packet.Packet
	nextPktID  uint64
	readsDone  uint64
	writesDone uint64
	readHops   uint64
	writeHops  uint64
	readLatSum sim.Duration
	latHist    stats.LatencyHist
	injReads   uint64
	injWrites  uint64

	// Runtime invariant auditing (nil = unaudited).
	aud           *audit.Auditor
	minReadLat    sim.Duration
	auditPrevInj  uint64
	auditPrevTerm uint64
}

// New builds a network over topo. All links share the same mechanism
// configuration; management policies are attached afterwards (package
// core).
func New(k *sim.Kernel, topo *topology.Topology, cfg Config) *Network {
	if cfg.ChunkBytes == 0 {
		panic("network: ChunkBytes must be set")
	}
	if cfg.Wakeup <= 0 {
		cfg.Wakeup = link.WakeupDefault
	}
	pm := power.DefaultModel()
	if cfg.Power != nil {
		pm = *cfg.Power
	}
	n := &Network{Kernel: k, Topo: topo, Cfg: cfg, buildTime: k.Now()}
	n.Modules = make([]*Module, topo.N())
	n.Links = make([]*link.Link, 0, 2*topo.N())

	for i := 0; i < topo.N(); i++ {
		m := &Module{
			ID:     i,
			DRAM:   dram.New(k, cfg.DRAM),
			Params: pm.ParamsForRadix(topo.Radix(i) == topology.HighRadix),
			net:    n,
		}
		lcfg := link.Config{
			Mechanism: cfg.Mechanism,
			ROO:       cfg.ROO,
			Wakeup:    cfg.Wakeup,
			FullWatts: m.Params.LinkFullWatts(),
		}
		parent := topo.Parent(i)
		depth := topo.Depth(i)
		m.UpReq = link.New(k, lcfg, 2*i, link.DirRequest, i, parent, i, depth)
		m.UpResp = link.New(k, lcfg, 2*i+1, link.DirResponse, i, i, parent, depth)
		n.Modules[i] = m
		n.Links = append(n.Links, m.UpReq, m.UpResp)
	}

	// Wire deliveries.
	for i := 0; i < topo.N(); i++ {
		m := n.Modules[i]
		m.UpReq.Deliver = m.receiveDownstream
		m.UpResp.Deliver = m.receiveUpstream
		// [22]: a module's response link starts waking as soon as its
		// DRAM begins a read. The paper includes this in both management
		// schemes whenever ROO links are used.
		if cfg.ROO {
			resp := m.UpResp
			m.DRAM.OnReadStart = func() { resp.Wake() }
		}
	}
	return n
}

// AttachAudit wires the runtime invariant auditor through the whole
// network: every link's state machine, buffer and energy accounting,
// every module's DRAM vault queues, read-latency and hop sanity at
// completion, and a registered conservation sweep over the injection/
// terminal counters. The auditor is purely observational — it schedules
// no events and mutates no simulation state, so audited and unaudited
// runs produce bit-identical results.
func (n *Network) AttachAudit(a *audit.Auditor) {
	n.aud = a
	// The latency floor: every read pays tRCD + tCL + the data burst in
	// its vault, and the network adds serialization on top.
	n.minReadLat = n.Cfg.DRAM.NominalReadLatency()
	for _, l := range n.Links {
		l.AttachAudit(a)
	}
	for i, m := range n.Modules {
		m.DRAM.AttachAudit(a, i)
	}
	a.RegisterSweep(n.auditSweep)
}

// auditRead is the sampled completion check: end-to-end latency above the
// physical floor, and the round trip exactly twice the serving module's
// depth (responses retrace the request path).
func (n *Network) auditRead(p *packet.Packet, lat sim.Duration) {
	if lat < n.minReadLat {
		n.aud.Reportf("network", "read-latency-floor",
			"read %d (module %d) completed in %s, floor %s", p.ID, p.Src, lat, n.minReadLat)
	}
	if want := 2 * n.Topo.Depth(p.Src); p.Hops != want {
		n.aud.Reportf("network", "read-hops",
			"read %d served by module %d took %d hops, want %d", p.ID, p.Src, p.Hops, want)
	}
}

// auditSweep checks request conservation: completions never exceed
// injections (in-flight ≥ 0) and both families of counters are monotone.
func (n *Network) auditSweep(now sim.Time, report func(component, rule, detail string)) {
	inj := n.injReads + n.injWrites
	term := n.readsDone + n.writesDone
	if term > inj {
		report("network", "conservation", fmt.Sprintf(
			"completions %d exceed injected %d (reads %d, writes %d)",
			term, inj, n.readsDone, n.writesDone))
	}
	if inj < n.auditPrevInj || term < n.auditPrevTerm {
		report("network", "counter-monotone", fmt.Sprintf(
			"injected %d->%d completed %d->%d", n.auditPrevInj, inj, n.auditPrevTerm, term))
	}
	n.auditPrevInj, n.auditPrevTerm = inj, term
}

// CheckQuiesced verifies the drained-network half of the conservation
// invariant: once the event queue is empty, every injected request must
// have completed. A live network legitimately has in-flight requests, so
// this is a quiesce-time check, not a sweep.
func (n *Network) CheckQuiesced() error {
	if out := n.Outstanding(); out != 0 {
		return fmt.Errorf("network: %d requests still in flight at quiesce (injected %d reads + %d writes)",
			out, n.injReads, n.injWrites)
	}
	return nil
}

// Injected returns the cumulative injected read and write requests (the
// audit layer's cross-check against the issuing front end).
func (n *Network) Injected() (reads, writes uint64) { return n.injReads, n.injWrites }

// nextID allocates a packet ID.
func (n *Network) nextID() uint64 {
	n.nextPktID++
	return n.nextPktID
}

// getPacket draws a packet from the free list (or allocates one); the
// caller overwrites every field. Packets retired on the completion paths
// come back through putPacket, so steady-state injection and response
// generation allocate nothing.
func (n *Network) getPacket() *packet.Packet {
	if i := len(n.pktFree) - 1; i >= 0 {
		p := n.pktFree[i]
		n.pktFree = n.pktFree[:i]
		return p
	}
	return new(packet.Packet)
}

// putPacket recycles a packet whose lifetime has ended. Completion
// callbacks (OnReadComplete, OnWriteComplete, OnInject) must not retain
// the packet past their return.
func (n *Network) putPacket(p *packet.Packet) {
	n.pktFree = append(n.pktFree, p)
}

// ModuleFor maps a physical address to its home module.
func (n *Network) ModuleFor(addr uint64) int {
	var m uint64
	if n.Cfg.Interleave {
		m = (addr / pageBytes) % uint64(n.Topo.N())
	} else {
		m = addr / n.Cfg.ChunkBytes
	}
	if m >= uint64(n.Topo.N()) {
		m = uint64(n.Topo.N()) - 1
	}
	return int(m)
}

// CapacityBytes is the address space covered by the network.
func (n *Network) CapacityBytes() uint64 {
	return n.Cfg.ChunkBytes * uint64(n.Topo.N())
}

// InjectRead enters a read request into the network on the processor's
// request link.
func (n *Network) InjectRead(addr uint64, core int) {
	p := n.getPacket()
	*p = packet.Packet{
		ID:     n.nextID(),
		Kind:   packet.ReadReq,
		Src:    packet.ProcessorID,
		Dst:    n.ModuleFor(addr),
		Addr:   addr,
		Issued: n.Kernel.Now(),
		Core:   core,
	}
	n.injReads++
	if n.OnInject != nil {
		n.OnInject(p)
	}
	n.Modules[0].UpReq.Enqueue(p)
}

// InjectWrite enters a (posted) write request.
func (n *Network) InjectWrite(addr uint64, core int) {
	p := n.getPacket()
	*p = packet.Packet{
		ID:     n.nextID(),
		Kind:   packet.WriteReq,
		Src:    packet.ProcessorID,
		Dst:    n.ModuleFor(addr),
		Addr:   addr,
		Issued: n.Kernel.Now(),
		Core:   core,
	}
	n.injWrites++
	if n.OnInject != nil {
		n.OnInject(p)
	}
	n.Modules[0].UpReq.Enqueue(p)
}

// receiveDownstream handles a packet arriving at m over its request link:
// it enters m's DRAM or is forwarded one hop toward its destination.
// Link delivery already includes this module's router latency.
func (m *Module) receiveDownstream(p *packet.Packet) {
	m.flitsRouted += uint64(p.Flits())
	if p.Dst == m.ID {
		m.accessDRAM(p)
		return
	}
	next := m.net.Topo.NextHop(m.ID, p.Dst)
	if next < 0 {
		panic(fmt.Sprintf("network: module %d has no route for %v", m.ID, p))
	}
	m.net.Modules[next].UpReq.Enqueue(p)
}

// receiveUpstream handles a packet arriving from m at its upstream
// neighbour: either the processor or the parent module's router.
func (m *Module) receiveUpstream(p *packet.Packet) {
	n := m.net
	parent := n.Topo.Parent(m.ID)
	if parent == packet.ProcessorID {
		n.completeRead(p)
		n.putPacket(p)
		return
	}
	pm := n.Modules[parent]
	pm.flitsRouted += uint64(p.Flits())
	pm.UpResp.Enqueue(p)
}

// accessDRAM dispatches p to the module's DRAM, buffering when the target
// vault queue is full.
func (m *Module) accessDRAM(p *packet.Packet) {
	if !m.tryDRAM(p) {
		m.pendingDRAM = append(m.pendingDRAM, p)
	}
}

func (m *Module) tryDRAM(p *packet.Packet) bool {
	var dd *dramDone
	if n := len(m.doneFree); n > 0 {
		dd, m.doneFree = m.doneFree[n-1], m.doneFree[:n-1]
	} else {
		dd = &dramDone{m: m}
	}
	dd.p, dd.isRead = p, p.Kind == packet.ReadReq
	if !m.DRAM.AccessAction(p.Addr, dd.isRead, dd) {
		dd.p = nil
		m.doneFree = append(m.doneFree, dd)
		return false
	}
	return true
}

// drainPending retries packets that found their vault queue full.
func (m *Module) drainPending() {
	for len(m.pendingDRAM) > 0 {
		if !m.tryDRAM(m.pendingDRAM[0]) {
			return
		}
		copy(m.pendingDRAM, m.pendingDRAM[1:])
		m.pendingDRAM = m.pendingDRAM[:len(m.pendingDRAM)-1]
	}
}

// sendResponse emits the read response toward the processor.
func (m *Module) sendResponse(req *packet.Packet) {
	n := m.net
	resp := n.getPacket()
	*resp = packet.Packet{
		ID:     n.nextID(),
		Kind:   packet.ReadResp,
		Src:    m.ID,
		Dst:    packet.ProcessorID,
		Addr:   req.Addr,
		Issued: req.Issued,
		Hops:   req.Hops, // carry request-leg hops for links/access stats
		Core:   req.Core,
	}
	m.flitsRouted += uint64(resp.Flits())
	m.UpResp.Enqueue(resp)
}

// completeRead retires a successful read at the processor.
func (n *Network) completeRead(p *packet.Packet) {
	n.readsDone++
	n.readHops += uint64(p.Hops)
	lat := n.Kernel.Now() - p.Issued
	n.readLatSum += lat
	n.latHist.Add(lat)
	if n.aud.Sample() {
		n.auditRead(p, lat)
	}
	if n.OnReadComplete != nil {
		n.OnReadComplete(p)
	}
}

// Outstanding counts injected requests that have not completed yet.
func (n *Network) Outstanding() int {
	return int(n.injReads + n.injWrites - n.readsDone - n.writesDone)
}

// LatencyHist exposes the end-to-end read latency distribution. Callers
// measuring an interval should Reset it at the interval start.
func (n *Network) LatencyHist() *stats.LatencyHist { return &n.latHist }

// Snapshot captures cumulative counters so an interval (e.g., excluding
// warmup) can be measured by differencing two snapshots.
type Snapshot struct {
	At         sim.Time
	Energy     power.Breakdown // joules since build
	ReadsDone  uint64
	WritesDone uint64
	ReadHops   uint64
	WriteHops  uint64
	ReadLatSum sim.Duration
	LinkBusy   []sim.Duration
	LinkBytes  []uint64
	DRAMReads  []uint64
	DRAMWrites []uint64
}

// TakeSnapshot integrates energy to now and captures all counters.
func (n *Network) TakeSnapshot() Snapshot {
	now := n.Kernel.Now()
	s := Snapshot{
		At:         now,
		Energy:     n.energyToNow(),
		ReadsDone:  n.readsDone,
		WritesDone: n.writesDone,
		ReadHops:   n.readHops,
		WriteHops:  n.writeHops,
		ReadLatSum: n.readLatSum,
		LinkBusy:   make([]sim.Duration, len(n.Links)),
		LinkBytes:  make([]uint64, len(n.Links)),
		DRAMReads:  make([]uint64, len(n.Modules)),
		DRAMWrites: make([]uint64, len(n.Modules)),
	}
	for i, l := range n.Links {
		s.LinkBusy[i] = l.BusyTime()
		s.LinkBytes[i] = l.Bytes()
	}
	for i, m := range n.Modules {
		st := m.DRAM.Stats()
		s.DRAMReads[i] = st.Reads
		s.DRAMWrites[i] = st.Writes
	}
	return s
}

// energyToNow integrates all components from build time to now.
func (n *Network) energyToNow() power.Breakdown {
	now := n.Kernel.Now()
	elapsed := (now - n.buildTime).Seconds()
	var b power.Breakdown
	for _, m := range n.Modules {
		// I/O: the module's two connectivity links.
		for _, l := range []*link.Link{m.UpReq, m.UpResp} {
			l.FinishAccounting()
			idle, active := l.EnergyJoules()
			b.IdleIO += idle
			b.ActiveIO += active
		}
		// DRAM.
		b.DRAMLeak += m.Params.DRAMLeakageWatts() * elapsed
		st := m.DRAM.Stats()
		peakBW := m.DRAM.Config().PeakBandwidthBytesPerSec()
		b.DRAMDyn += m.Params.DRAMDynamicRangeWatts() * float64(st.BytesTransferred) / peakBW
		// Logic.
		b.LogicLeak += m.Params.LogicLeakageWatts() * elapsed
		maxFlitsPerSec := float64(m.Params.UniLinks) / link.FlitTimeFull.Seconds()
		b.LogicDyn += m.Params.LogicDynamicRangeWatts() * float64(m.flitsRouted) / maxFlitsPerSec
	}
	return b
}

// IntervalPower returns the average power breakdown between two snapshots.
func IntervalPower(a, b Snapshot) power.Breakdown {
	dt := (b.At - a.At).Seconds()
	if dt <= 0 {
		return power.Breakdown{}
	}
	diff := b.Energy
	diff.IdleIO -= a.Energy.IdleIO
	diff.ActiveIO -= a.Energy.ActiveIO
	diff.LogicLeak -= a.Energy.LogicLeak
	diff.LogicDyn -= a.Energy.LogicDyn
	diff.DRAMLeak -= a.Energy.DRAMLeak
	diff.DRAMDyn -= a.Energy.DRAMDyn
	return diff.Scale(1 / dt)
}

// ChannelUtilization returns the busier direction's utilization of the
// processor-attached full link over the snapshot interval.
func ChannelUtilization(a, b Snapshot) float64 {
	dt := float64(b.At - a.At)
	if dt <= 0 {
		return 0
	}
	req := float64(b.LinkBusy[0] - a.LinkBusy[0])
	resp := float64(b.LinkBusy[1] - a.LinkBusy[1])
	if req > resp {
		return req / dt
	}
	return resp / dt
}

// AvgLinkUtilization returns the mean utilization across all links over
// the snapshot interval.
func AvgLinkUtilization(a, b Snapshot) float64 {
	dt := float64(b.At - a.At)
	if dt <= 0 || len(b.LinkBusy) == 0 {
		return 0
	}
	var sum float64
	for i := range b.LinkBusy {
		sum += float64(b.LinkBusy[i] - a.LinkBusy[i])
	}
	return sum / dt / float64(len(b.LinkBusy))
}

// LinksPerAccess returns the average number of links traversed per
// completed memory access over the snapshot interval (Fig. 6).
func LinksPerAccess(a, b Snapshot) float64 {
	acc := float64((b.ReadsDone - a.ReadsDone) + (b.WritesDone - a.WritesDone))
	if acc == 0 {
		return 0
	}
	hops := float64((b.ReadHops - a.ReadHops) + (b.WriteHops - a.WriteHops))
	return hops / acc
}

// Throughput returns completed accesses per second over the interval.
func Throughput(a, b Snapshot) float64 {
	dt := (b.At - a.At).Seconds()
	if dt <= 0 {
		return 0
	}
	return float64((b.ReadsDone-a.ReadsDone)+(b.WritesDone-a.WritesDone)) / dt
}

// AvgReadLatency returns the mean end-to-end read latency over the
// interval.
func AvgReadLatency(a, b Snapshot) sim.Duration {
	reads := b.ReadsDone - a.ReadsDone
	if reads == 0 {
		return 0
	}
	return (b.ReadLatSum - a.ReadLatSum) / sim.Duration(reads)
}
