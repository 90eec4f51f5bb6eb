// Package network assembles HMC modules, their DRAM stacks, and the
// unidirectional link pairs into a simulated memory network: routing,
// vault dispatch, read-response generation, and whole-network energy and
// traffic accounting.
package network

import (
	"errors"
	"fmt"
	"strings"

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
	// the §VII-A static baseline); PageBytes is the interleaving grain.
	Interleave bool
	PageBytes  uint64
	// DRAM configures every module's DRAM stack.
	DRAM dram.Config
	// Power overrides the [12] power model for every module (nil = the
	// published operating point, power.DefaultModel). The calibration
	// harness perturbs it for sensitivity sweeps.
	Power *power.Model
	// ProactiveRespWake wires [22]: a module's response link starts
	// waking as soon as its DRAM begins a read. The paper includes this
	// in both management schemes whenever ROO links are used.
	ProactiveRespWake bool
	// Retrain is every link's lane-training latency for repair and CRC
	// escalation (defaults to link.RetrainDefault).
	Retrain sim.Duration
	// MaxCRCRetries bounds consecutive CRC retransmissions per packet
	// before a link escalates (0 = link.DefaultMaxCRCRetries).
	MaxCRCRetries int
}

// DefaultConfig returns the paper's small-network configuration.
func DefaultConfig() Config {
	return Config{
		Mechanism:         link.MechNone,
		ChunkBytes:        4 << 30,
		PageBytes:         4 << 10,
		DRAM:              dram.DefaultConfig(),
		Wakeup:            link.WakeupDefault,
		ProactiveRespWake: true,
	}
}

// Sentinel errors for degradation paths. Faults recorded by the network
// wrap one of these, so callers (the fault layer, tests) can classify
// them with errors.Is.
var (
	// ErrUnroutable marks a packet no route exists for.
	ErrUnroutable = errors.New("network: unroutable packet")
	// ErrLinkFailed marks traffic lost to a permanently failed link.
	ErrLinkFailed = errors.New("network: link failed")
)

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

	// OnReadComplete fires when a read completes at the processor — with a
	// ReadResp carrying data, or with a ReadErr when the network could not
	// deliver the read (check Kind.IsError()). OnWriteComplete fires when a
	// write retires at its DRAM, or with a WriteErr when it could not be
	// delivered, so the issuer can release the write credit either way.
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

	// Degradation and recovery state and accounting.
	unreachable  []bool
	linkDown     []bool // failed and not yet retrained back into service
	avail        *stats.Availability
	repaired     uint64
	injReads     uint64
	injWrites    uint64
	readsFailed  uint64 // reads completed as ReadErr at the processor
	writesFailed uint64 // writes completed as WriteErr at the processor
	lostReads    uint64 // reads whose response was dropped/stranded: terminal
	lostWrites   uint64
	droppedPkts  uint64
	routingErrs  uint64
	failLatSum   sim.Duration // issue-to-error latency of failed reads
	faultLog     []error
	faultCount   uint64

	// Runtime invariant auditing (nil = unaudited).
	aud           *audit.Auditor
	minReadLat    sim.Duration
	auditPrevInj  uint64
	auditPrevTerm uint64
}

// maxFaultLog bounds the retained fault diagnostics; the count keeps
// accumulating past it.
const maxFaultLog = 128

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
	n.unreachable = make([]bool, topo.N())
	n.linkDown = make([]bool, 2*topo.N())
	n.avail = stats.NewAvailability(topo.N())

	for i := 0; i < topo.N(); i++ {
		m := &Module{
			ID:     i,
			DRAM:   dram.New(k, cfg.DRAM),
			Params: pm.ParamsForRadix(topo.Radix(i) == topology.HighRadix),
			net:    n,
		}
		lcfg := link.Config{
			Mechanism:     cfg.Mechanism,
			ROO:           cfg.ROO,
			Wakeup:        cfg.Wakeup,
			FullWatts:     m.Params.LinkFullWatts(),
			Retrain:       cfg.Retrain,
			MaxCRCRetries: cfg.MaxCRCRetries,
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
		if cfg.ROO && cfg.ProactiveRespWake {
			resp := m.UpResp
			m.DRAM.OnReadStart = func() { resp.Wake() }
		}
	}
	for _, l := range n.Links {
		l := l
		l.OnDrop = func(p *packet.Packet) { n.handleDrop(l, p) }
		// Recovery wiring: an exhausted escalation ladder fails the link
		// through the network (stranded requests error-complete); a
		// finished retraining re-admits the subtree if the link was down.
		l.OnHardFail = func() { _ = n.FailLink(l.ID) }
		l.OnRetrained = func() { n.linkRetrained(l) }
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
	// The latency floor is conservative across page policies: even an
	// open-page row hit pays tCL plus the data burst, and the network adds
	// serialization on top.
	n.minReadLat = n.Cfg.DRAM.TCL + n.Cfg.DRAM.BurstTime()
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

// auditSweep checks request conservation: terminal outcomes never exceed
// injections (in-flight ≥ 0) and both families of counters are monotone.
func (n *Network) auditSweep(now sim.Time, report func(component, rule, detail string)) {
	inj := n.injReads + n.injWrites
	term := n.readsDone + n.readsFailed + n.lostReads +
		n.writesDone + n.writesFailed + n.lostWrites
	if term > inj {
		report("network", "conservation", fmt.Sprintf(
			"terminal outcomes %d exceed injected %d (reads %d done/%d failed/%d lost, writes %d/%d/%d)",
			term, inj, n.readsDone, n.readsFailed, n.lostReads, n.writesDone, n.writesFailed, n.lostWrites))
	}
	if inj < n.auditPrevInj || term < n.auditPrevTerm {
		report("network", "counter-monotone", fmt.Sprintf(
			"injected %d->%d terminal %d->%d", n.auditPrevInj, inj, n.auditPrevTerm, term))
	}
	n.auditPrevInj, n.auditPrevTerm = inj, term
	// Reachability marks must be exactly what the down-link set implies —
	// a repair that forgets to re-admit a subtree (or a failure that
	// forgets to sever one) shows up here.
	for m := range n.Modules {
		down := false
		for a := m; a != packet.ProcessorID; a = n.Topo.Parent(a) {
			if n.linkDown[2*a] || n.linkDown[2*a+1] {
				down = true
				break
			}
		}
		if down != n.unreachable[m] {
			report("network", "reachability-consistent", fmt.Sprintf(
				"module %d unreachable=%v but down-link derivation says %v", m, n.unreachable[m], down))
		}
	}
}

// CheckQuiesced verifies the drained-network half of the conservation
// invariant: once the event queue is empty (and issuers have timed out or
// completed), every injected request must have a terminal outcome — data,
// error response, or accounted loss. A live network legitimately has
// in-flight requests, so this is a quiesce-time check, not a sweep.
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
// caller overwrites every field. Packets retired on the hot completion
// paths come back through putPacket, so steady-state injection and
// response generation allocate nothing; degradation-path packets (errors,
// strands, drops) are simply left to the garbage collector, which keeps
// every put site trivially single-shot.
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
		m = (addr / n.Cfg.PageBytes) % uint64(n.Topo.N())
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
func (n *Network) InjectRead(addr uint64, core int) { n.InjectReadID(addr, core) }

// InjectReadID is InjectRead returning the request's packet ID, so the
// issuer can correlate it with the completion (Packet.Req on responses)
// in an outstanding-request table.
func (n *Network) InjectReadID(addr uint64, core int) uint64 {
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
	n.inject(p)
	return p.ID
}

// InjectWrite enters a (posted) write request.
func (n *Network) InjectWrite(addr uint64, core int) { n.InjectWriteID(addr, core) }

// InjectWriteID is InjectWrite returning the request's packet ID.
func (n *Network) InjectWriteID(addr uint64, core int) uint64 {
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
	n.inject(p)
	return p.ID
}

// inject places a fresh request on the processor's request link, or — if
// that link is down — completes it immediately as an error. The error
// completion is deferred one event so the issuer's bookkeeping for the
// request is in place before the completion callback fires.
func (n *Network) inject(p *packet.Packet) {
	root := n.Modules[0].UpReq
	if root.Failed() {
		n.recordFault(fmt.Errorf("%w: processor request link, rejecting %v", ErrLinkFailed, p))
		errp := n.errorFor(p, packet.ProcessorID)
		n.Kernel.After(0, func() { n.completeUpstream(errp) })
		return
	}
	root.Enqueue(p)
}

// receiveDownstream handles a packet arriving at m over its request link.
// Link delivery already includes this module's router latency. A routing
// failure — no route, or the next hop's link is dead — is not a panic:
// the router completes the request back toward the processor as an error
// response.
func (m *Module) receiveDownstream(p *packet.Packet) {
	m.flitsRouted += uint64(p.Flits())
	if p.Dst == m.ID {
		m.accessDRAM(p)
		return
	}
	if err := m.route(p); err != nil {
		m.net.recordFault(err)
		m.sendError(p)
	}
}

// route forwards p one hop toward its destination, returning a wrapped
// ErrUnroutable/ErrLinkFailed instead of panicking when it cannot.
func (m *Module) route(p *packet.Packet) error {
	next := m.net.Topo.NextHop(m.ID, p.Dst)
	if next < 0 {
		m.net.routingErrs++
		return fmt.Errorf("%w: module %d has no route for %v", ErrUnroutable, m.ID, p)
	}
	nl := m.net.Modules[next].UpReq
	if nl.Failed() {
		return fmt.Errorf("%w: request link %d->%d carrying %v", ErrLinkFailed, m.ID, next, p)
	}
	nl.Enqueue(p)
	return nil
}

// receiveUpstream handles a packet arriving from m at its upstream
// neighbour: either the processor or the parent module's router.
func (m *Module) receiveUpstream(p *packet.Packet) {
	n := m.net
	parent := n.Topo.Parent(m.ID)
	if parent == packet.ProcessorID {
		n.completeUpstream(p)
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
		Req:    req.ID,
		Core:   req.Core,
	}
	m.flitsRouted += uint64(resp.Flits())
	m.UpResp.Enqueue(resp)
}

// errorFor builds the error response completing req from src's side.
func (n *Network) errorFor(req *packet.Packet, src int) *packet.Packet {
	kind := packet.ReadErr
	if req.Kind == packet.WriteReq || req.Kind == packet.WriteErr {
		kind = packet.WriteErr
	}
	return &packet.Packet{
		ID:     n.nextID(),
		Kind:   kind,
		Src:    src,
		Dst:    packet.ProcessorID,
		Addr:   req.Addr,
		Issued: req.Issued,
		Hops:   req.Hops,
		Req:    req.ID,
		Core:   req.Core,
	}
}

// sendError completes req as an error response originating at m. The
// error packet travels the real upstream path, so it pays link energy
// and latency like any response; if that path is itself severed the drop
// handler accounts the request as terminally lost.
func (m *Module) sendError(req *packet.Packet) {
	errp := m.net.errorFor(req, m.ID)
	m.flitsRouted += uint64(errp.Flits())
	m.UpResp.Enqueue(errp)
}

// completeUpstream retires an upstream packet arriving at the processor.
func (n *Network) completeUpstream(p *packet.Packet) {
	switch p.Kind {
	case packet.ReadResp:
		n.completeRead(p)
		n.putPacket(p)
	case packet.ReadErr:
		n.readsFailed++
		n.failLatSum += n.Kernel.Now() - p.Issued
		if n.OnReadComplete != nil {
			n.OnReadComplete(p)
		}
	case packet.WriteErr:
		n.writesFailed++
		if n.OnWriteComplete != nil {
			n.OnWriteComplete(p)
		}
	}
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

// FailLink fails the connectivity link at Links[idx] and marks the
// subtree hanging off it unreachable until the link is repaired. Packets
// stranded on the link are recovered: requests complete as error
// responses generated at the live (upstream) side of the cut, responses
// are accounted as terminally lost so their requests resolve via issuer
// timeouts.
func (n *Network) FailLink(idx int) error {
	if idx < 0 || idx >= len(n.Links) {
		return fmt.Errorf("network: no link %d (have %d)", idx, len(n.Links))
	}
	l := n.Links[idx]
	if l.Failed() {
		return nil
	}
	mod := idx / 2
	n.recordFault(fmt.Errorf("%w: link %d (module %d) failed at %s", ErrLinkFailed, idx, mod, n.Kernel.Now()))
	stranded := l.Fail()
	// Either direction dying severs read round-trips through the module,
	// so the whole subtree is unreachable for new requests.
	n.linkDown[idx] = true
	n.recomputeReachability()
	for _, p := range stranded {
		n.strand(l, p)
	}
	return nil
}

// FailModule fails both connectivity links of module id.
func (n *Network) FailModule(id int) error {
	if id < 0 || id >= len(n.Modules) {
		return fmt.Errorf("network: no module %d (have %d)", id, len(n.Modules))
	}
	if err := n.FailLink(2 * id); err != nil {
		return err
	}
	return n.FailLink(2*id + 1)
}

// RepairLink begins recovery of a failed link: the link retrains (full
// I/O power, no traffic) and, once training completes, rejoins the
// network — linkRetrained clears the down mark and re-admits the subtree
// to routing. Requests that timed out during the outage come back
// through the issuer's bounded retry or stay completed as errors.
// Repairing a live link is a no-op; only an out-of-range index errors.
func (n *Network) RepairLink(idx int) error {
	if idx < 0 || idx >= len(n.Links) {
		return fmt.Errorf("network: no link %d (have %d)", idx, len(n.Links))
	}
	n.Links[idx].Repair()
	return nil
}

// RepairModule repairs both connectivity links of module id and clears
// any injected vault stall, so the module comes back fully operational.
func (n *Network) RepairModule(id int) error {
	if id < 0 || id >= len(n.Modules) {
		return fmt.Errorf("network: no module %d (have %d)", id, len(n.Modules))
	}
	if err := n.RepairLink(2 * id); err != nil {
		return err
	}
	if err := n.RepairLink(2*id + 1); err != nil {
		return err
	}
	n.Modules[id].DRAM.ClearStall()
	return nil
}

// linkRetrained fires when a link finishes retraining. Self-retrains
// from the CRC escalation ladder pause traffic but never severed the
// subtree; only the repair of a down link changes reachability.
func (n *Network) linkRetrained(l *link.Link) {
	if !n.linkDown[l.ID] {
		return
	}
	n.linkDown[l.ID] = false
	n.repaired++
	n.recomputeReachability()
}

// recomputeReachability rederives the unreachable marks from the set of
// down links and feeds the transitions into the availability accounting.
// It is the single mutation point of unreachable, shared by failure and
// repair, so stacked faults resolve correctly: repairing the lower of
// two cuts on one path re-admits nothing until the upper cut heals too.
func (n *Network) recomputeReachability() {
	now := n.Kernel.Now()
	for m := range n.Modules {
		down := false
		for a := m; a != packet.ProcessorID; a = n.Topo.Parent(a) {
			if n.linkDown[2*a] || n.linkDown[2*a+1] {
				down = true
				break
			}
		}
		if down == n.unreachable[m] {
			continue
		}
		n.unreachable[m] = down
		if down {
			n.avail.Down(m, now)
		} else {
			n.avail.Up(m, now)
		}
	}
}

// Unreachable reports whether module id sits below a down link.
func (n *Network) Unreachable(id int) bool { return n.unreachable[id] }

// AvailabilityReport summarizes the per-module up/down accounting since
// the network was built.
func (n *Network) AvailabilityReport() stats.AvailabilityReport {
	now := n.Kernel.Now()
	return n.avail.Report(now-n.buildTime, now)
}

// strand resolves a packet reclaimed from a failing link's queue.
func (n *Network) strand(l *link.Link, p *packet.Packet) {
	n.droppedPkts++
	if !p.Kind.Downstream() {
		n.loseResponse(p)
		return
	}
	// A request caught in the cut: the live side is the upstream end of
	// the failed request link. Deferred one event so a failure injected
	// from inside an issuer's callback cannot complete reentrantly.
	c := l.ID / 2
	parent := n.Topo.Parent(c)
	if parent == packet.ProcessorID {
		errp := n.errorFor(p, packet.ProcessorID)
		n.Kernel.After(0, func() { n.completeUpstream(errp) })
		return
	}
	pm := n.Modules[parent]
	n.Kernel.After(0, func() { pm.sendError(p) })
}

// handleDrop accounts a packet rejected by a failed link's Enqueue.
func (n *Network) handleDrop(l *link.Link, p *packet.Packet) {
	n.droppedPkts++
	n.recordFault(fmt.Errorf("%w: link %d dropped %v", ErrLinkFailed, l.ID, p))
	if p.Kind.Downstream() {
		// Backstop — routing checks link health before forwarding, so a
		// request should never reach a dead link; account it lost so the
		// outstanding count still converges if one does.
		if p.Kind == packet.ReadReq {
			n.lostReads++
		} else {
			n.lostWrites++
		}
		return
	}
	n.loseResponse(p)
}

// loseResponse marks an upstream packet as terminally lost; the request
// it was completing can now only resolve via the issuer's timeout.
func (n *Network) loseResponse(p *packet.Packet) {
	switch p.Kind {
	case packet.ReadResp, packet.ReadErr:
		n.lostReads++
	case packet.WriteErr:
		n.lostWrites++
	}
}

// recordFault appends a diagnostic (bounded) and counts it.
func (n *Network) recordFault(err error) {
	n.faultCount++
	if len(n.faultLog) < maxFaultLog {
		n.faultLog = append(n.faultLog, err)
	}
}

// Faults returns the retained fault diagnostics (bounded to the first
// maxFaultLog) and the total number recorded.
func (n *Network) Faults() ([]error, uint64) { return n.faultLog, n.faultCount }

// FaultStats aggregates the degradation counters.
type FaultStats struct {
	ReadsFailed   uint64 // reads completed as error responses
	WritesFailed  uint64 // writes completed as error responses
	LostReads     uint64 // reads whose response was dropped: issuer must time out
	LostWrites    uint64
	Dropped       uint64 // packets dropped or stranded by failed links
	RoutingErrors uint64 // unroutable packets (would have panicked before)
	FailedLinks   int
	FailLatSum    sim.Duration         // issue-to-error-completion latency of failed reads
	RepairedLinks uint64               // links retrained back into service after a failure
	Escalations   link.EscalationStats // CRC retry-ladder actions summed over links
}

// FaultStats returns a snapshot of the degradation counters.
func (n *Network) FaultStats() FaultStats {
	s := FaultStats{
		ReadsFailed:   n.readsFailed,
		WritesFailed:  n.writesFailed,
		LostReads:     n.lostReads,
		LostWrites:    n.lostWrites,
		Dropped:       n.droppedPkts,
		RoutingErrors: n.routingErrs,
		FailLatSum:    n.failLatSum,
		RepairedLinks: n.repaired,
	}
	for _, l := range n.Links {
		if l.Failed() {
			s.FailedLinks++
		}
		e := l.Escalations()
		s.Escalations.Degrades += e.Degrades
		s.Escalations.Retrains += e.Retrains
		s.Escalations.HardFails += e.HardFails
	}
	return s
}

// Outstanding counts injected requests with no terminal outcome yet
// (data, error response, or accounted loss) — the watchdog's in-flight
// probe.
func (n *Network) Outstanding() int {
	done := n.readsDone + n.readsFailed + n.lostReads +
		n.writesDone + n.writesFailed + n.lostWrites
	return int(n.injReads + n.injWrites - done)
}

// DumpState renders a deterministic diagnostic snapshot — link states
// and queue depths, outstanding counts, vault backlogs — for watchdog
// reports and post-mortem logs.
func (n *Network) DumpState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  network: outstanding=%d injected=%d reads=%d/%d failed writes=%d/%d failed lost=%d/%d dropped=%d routing-errors=%d\n",
		n.Outstanding(), n.injReads+n.injWrites,
		n.readsDone, n.readsFailed, n.writesDone, n.writesFailed,
		n.lostReads, n.lostWrites, n.droppedPkts, n.routingErrs)
	for i, m := range n.Modules {
		req, resp := m.UpReq, m.UpResp
		marker := ""
		if n.unreachable[i] {
			marker = " UNREACHABLE"
		}
		fmt.Fprintf(&b, "  module %d%s: req[%s q=%d] resp[%s q=%d] vault-pending=%d dram-outstanding=%d\n",
			i, marker,
			req.State(), req.QueueLen(), resp.State(), resp.QueueLen(),
			len(m.pendingDRAM), m.DRAM.OutstandingReads())
	}
	return b.String()
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
	// ReadsFailed/WritesFailed count requests completed as error
	// responses under degradation (zero on a healthy network).
	ReadsFailed  uint64
	WritesFailed uint64
	ReadHops     uint64
	WriteHops    uint64
	ReadLatSum   sim.Duration
	LinkBusy     []sim.Duration
	LinkBytes    []uint64
	DRAMReads    []uint64
	DRAMWrites   []uint64
}

// TakeSnapshot integrates energy to now and captures all counters.
func (n *Network) TakeSnapshot() Snapshot {
	now := n.Kernel.Now()
	s := Snapshot{
		At:           now,
		Energy:       n.energyToNow(),
		ReadsDone:    n.readsDone,
		WritesDone:   n.writesDone,
		ReadsFailed:  n.readsFailed,
		WritesFailed: n.writesFailed,
		ReadHops:     n.readHops,
		WriteHops:    n.writeHops,
		ReadLatSum:   n.readLatSum,
		LinkBusy:     make([]sim.Duration, len(n.Links)),
		LinkBytes:    make([]uint64, len(n.Links)),
		DRAMReads:    make([]uint64, len(n.Modules)),
		DRAMWrites:   make([]uint64, len(n.Modules)),
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
