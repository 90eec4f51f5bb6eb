package core

import (
	"fmt"

	"memnet/internal/link"
	"memnet/internal/metrics"
	"memnet/internal/network"
	"memnet/internal/packet"
	"memnet/internal/sim"
	"memnet/internal/stats"
)

// PolicyKind selects a built-in management policy.
type PolicyKind int

const (
	// PolicyNone leaves every link at full power (the FP baseline).
	PolicyNone PolicyKind = iota
	// PolicyUnaware is §V's network-unaware management.
	PolicyUnaware
	// PolicyAware is §VI's network-aware management (ISP).
	PolicyAware
	// PolicyStatic is §VII-A's static fat/tapered-tree bandwidth
	// selection (bandwidth mechanisms only; no epochs, no feedback).
	PolicyStatic
)

// String implements fmt.Stringer.
func (p PolicyKind) String() string {
	switch p {
	case PolicyNone:
		return "full-power"
	case PolicyUnaware:
		return "network-unaware"
	case PolicyAware:
		return "network-aware"
	case PolicyStatic:
		return "static"
	default:
		return fmt.Sprintf("PolicyKind(%d)", int(p))
	}
}

// Config tunes the management machinery. Zero values take the paper's
// settings via DefaultConfig.
type Config struct {
	// Policy selects the built-in policy; Custom overrides it.
	Policy PolicyKind
	// Custom, if non-nil, replaces the built-in reconfiguration step
	// (see the custom_policy example).
	Custom Policy
	// Epoch is the management interval (100 µs, like [20]).
	Epoch sim.Duration
	// Alpha is the user-tunable slowdown factor α (e.g., 0.025, 0.05).
	Alpha float64
	// ISPIterations caps ISP rounds (the paper uses 3).
	ISPIterations int
	// GrantFraction is the share of the leftover-AMS pool granted per
	// violation request (1/16), MaxGrants the per-link per-epoch cap (4).
	GrantFraction float64
	MaxGrants     int
	// SRCFraction is the "big fraction" (25%) of the next-cheaper mode's
	// FLO a link must be able to fund to stay a slowdown-receiving
	// candidate.
	SRCFraction float64
	// RequestShare is the fraction of the pool assigned to request links
	// when both link types are candidates (3/4 for VWL/DVFS+ROO).
	RequestShare float64
	// ChargeControl charges ISP/grant message energy to the links.
	ChargeControl bool
	// DisableWakeCascade turns off the §VI-B response-path wakeup
	// cascade (ablation; see bench_test.go).
	DisableWakeCascade bool
	// DisableQDQF turns off the §VI-C congestion discount (ablation).
	DisableQDQF bool
	// CollectLinkHours accumulates the Fig. 13 histogram.
	CollectLinkHours bool
}

// DefaultConfig returns the paper's settings for a policy.
func DefaultConfig(policy PolicyKind, alpha float64) Config {
	return Config{
		Policy:           policy,
		Epoch:            100 * sim.Microsecond,
		Alpha:            alpha,
		ISPIterations:    3,
		GrantFraction:    1.0 / 16,
		MaxGrants:        4,
		SRCFraction:      0.25,
		RequestShare:     0.75,
		ChargeControl:    true,
		CollectLinkHours: true,
	}
}

// Policy is the per-epoch reconfiguration hook. Built-in policies and the
// custom_policy example implement it.
type Policy interface {
	// Name labels the policy in reports.
	Name() string
	// Reconfigure inspects the finished epoch and programs every link's
	// power mode for the next one, returning each link's AMS budget for
	// violation monitoring (indexed like Manager.Links).
	Reconfigure(m *Manager, e *EpochData) []sim.Duration
}

// EpochData is everything a policy sees at an epoch boundary.
type EpochData struct {
	// Counters[i] are link i's counters for the finished epoch (indexed
	// like network.Network.Links: 2m = module m's UpReq, 2m+1 = UpResp).
	Counters []link.EpochCounters
	// FLO[i] is link i's per-mode overhead table for the next epoch.
	FLO []floTable
	// DRAMReads[m] counts module m's DRAM reads in the epoch.
	DRAMReads []uint64
	// ModuleFEL and ModuleAEL are Eq. 1's per-module epoch latencies.
	ModuleFEL, ModuleAEL []sim.Duration
	// EpochLen is the epoch duration.
	EpochLen sim.Duration
}

// unlimitedAMS is a budget no link's overhead can exceed; a link holding it
// is exempt from violation monitoring.
const unlimitedAMS = sim.Duration(1) << 60

// violationChecksPerEpoch is how often per epoch every link compares its
// running latency overhead against its AMS ([23]).
const violationChecksPerEpoch = 10

// Manager drives epochs, maintains Eq. 1's cumulative sums, runs violation
// sweeps, and carries the shared state both policies use.
type Manager struct {
	Kernel *sim.Kernel
	Net    *network.Network
	Cfg    Config

	policy Policy

	// Per-module cumulative Σ FEL and Σ (AEL − FEL) (Eq. 1).
	CumFEL  []sim.Duration
	CumOver []sim.Duration
	// Network-wide cumulative sums (kept by the head module in §VI).
	CumFELNet  sim.Duration
	CumOverNet sim.Duration

	// Violation state for the running epoch.
	linkAMS    []sim.Duration
	grants     []int
	pool       sim.Duration
	grantUnit  sim.Duration
	violations uint64
	granted    uint64

	prevDRAMReads []uint64
	epochs        uint64
	Hist          *stats.LinkHourHist

	epochTick epochAction
	sweep     sweepAction
}

// Attach wires a manager to net and starts its epoch machinery. For
// PolicyNone it only keeps links at full power (no epochs). For
// PolicyStatic it programs the static modes once.
func Attach(k *sim.Kernel, net *network.Network, cfg Config) *Manager {
	if cfg.Epoch <= 0 {
		cfg.Epoch = 100 * sim.Microsecond
	}
	m := &Manager{
		Kernel:        k,
		Net:           net,
		Cfg:           cfg,
		CumFEL:        make([]sim.Duration, net.Topo.N()),
		CumOver:       make([]sim.Duration, net.Topo.N()),
		linkAMS:       make([]sim.Duration, len(net.Links)),
		grants:        make([]int, len(net.Links)),
		prevDRAMReads: make([]uint64, net.Topo.N()),
		Hist:          &stats.LinkHourHist{},
	}
	m.epochTick.m, m.sweep.m = m, m
	switch {
	case cfg.Custom != nil:
		m.policy = cfg.Custom
	case cfg.Policy == PolicyUnaware:
		m.policy = &UnawarePolicy{}
	case cfg.Policy == PolicyAware:
		p := &AwarePolicy{}
		m.policy = p
		p.install(m)
	case cfg.Policy == PolicyStatic:
		applyStatic(net)
		return m
	default:
		return m // PolicyNone: nothing to do
	}

	// Only an epoch policy reads the links' delay monitors and epoch
	// counters, so only it pays for them.
	for _, l := range net.Links {
		l.AttachMonitors()
	}
	// Unlimited AMS until the first epoch completes (no counters yet).
	for i := range m.linkAMS {
		m.linkAMS[i] = unlimitedAMS
	}
	m.scheduleEpoch()
	m.scheduleViolationSweeps()
	return m
}

// AttachMetrics registers the management-layer time-series on reg
// (nil-safe). Slack is Eq. 1's remaining slowdown budget,
// α·ΣFEL − Σ(AEL−FEL), network-wide: positive means the network may keep
// saving power, negative means the policy is violating its bound and
// must force links back to full power. Violations and grants count those
// slowdown decisions.
func (m *Manager) AttachMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	reg.Gauge("core.epoch_slack_ps", func() float64 {
		return m.Cfg.Alpha*float64(m.CumFELNet) - float64(m.CumOverNet)
	})
	reg.Counter("core.epochs", func() float64 { return float64(m.epochs) })
	reg.Counter("core.violations", func() float64 { return float64(m.violations) })
	reg.Counter("core.grants", func() float64 { return float64(m.granted) })
}

// Policy returns the active policy (nil for FP/static).
func (m *Manager) Policy() Policy { return m.policy }

// Epochs returns the number of completed epochs.
func (m *Manager) Epochs() uint64 { return m.epochs }

// Violations returns how many link-epoch AMS violations occurred; Granted
// counts how many were absorbed by leftover-AMS grants.
func (m *Manager) Violations() (total, granted uint64) { return m.violations, m.granted }

// Links returns the managed links (aliases network ordering).
func (m *Manager) Links() []*link.Link { return m.Net.Links }

func (m *Manager) scheduleEpoch() { m.Kernel.AfterAction(m.Cfg.Epoch, &m.epochTick) }

// epochAction is the manager's epoch tick: it ends the running epoch and
// schedules the next tick. One is pending at a time, so the manager
// embeds it.
type epochAction struct{ m *Manager }

func (a *epochAction) Act() {
	a.m.endEpoch()
	a.m.scheduleEpoch()
}

// endEpoch snapshots counters, maintains Eq. 1's sums, and lets the policy
// program the next epoch.
func (m *Manager) endEpoch() {
	now := m.Kernel.Now()
	net := m.Net
	n := net.Topo.N()
	e := &EpochData{
		Counters:  make([]link.EpochCounters, len(net.Links)),
		FLO:       make([]floTable, len(net.Links)),
		DRAMReads: make([]uint64, n),
		ModuleFEL: make([]sim.Duration, n),
		ModuleAEL: make([]sim.Duration, n),
		EpochLen:  m.Cfg.Epoch,
	}
	for i, l := range net.Links {
		l.ClearForce()
		e.Counters[i] = l.Mon().SnapshotAndReset(now)
		e.FLO[i] = buildFLOTable(l, &e.Counters[i], m.Cfg.Epoch)
		if m.Cfg.CollectLinkHours {
			util := float64(e.Counters[i].BusyTime) / float64(m.Cfg.Epoch)
			m.Hist.Add(util, e.Counters[i].TimeInBWMode)
		}
	}
	nominal := net.Cfg.DRAM.NominalReadLatency()
	for i := 0; i < n; i++ {
		mod := net.Modules[i]
		reads := mod.DRAM.Stats().Reads
		e.DRAMReads[i] = reads - m.prevDRAMReads[i]
		m.prevDRAMReads[i] = reads
		dramLat := sim.Duration(e.DRAMReads[i]) * nominal
		req := &e.Counters[2*i]
		resp := &e.Counters[2*i+1]
		e.ModuleFEL[i] = dramLat + req.VirtualReadLatency[0] + resp.VirtualReadLatency[0]
		e.ModuleAEL[i] = dramLat + req.ActualReadLatency + resp.ActualReadLatency
		m.CumFEL[i] += e.ModuleFEL[i]
		m.CumOver[i] += e.ModuleAEL[i] - e.ModuleFEL[i]
	}

	m.epochs++
	for i := range m.grants {
		m.grants[i] = 0
	}
	ams := m.policy.Reconfigure(m, e)
	copy(m.linkAMS, ams)
}

// scheduleViolationSweeps periodically compares each link's running
// latency overhead against its AMS ([23]); violators either receive a
// grant from the leftover pool (network-aware) or go to full power.
func (m *Manager) scheduleViolationSweeps() {
	m.Kernel.AfterAction(m.Cfg.Epoch/violationChecksPerEpoch, &m.sweep)
}

// sweepAction is the manager's pending violation sweep, embedded like
// epochAction.
type sweepAction struct{ m *Manager }

func (a *sweepAction) Act() { a.m.violationSweep() }

// violationSweep runs one sweep and schedules the next.
func (m *Manager) violationSweep() {
	for i, l := range m.Net.Links {
		if l.Forced() {
			continue
		}
		ec := l.Mon().Peek()
		over := ec.ActualReadLatency - ec.VirtualReadLatency[0]
		if over <= m.linkAMS[i] {
			continue
		}
		m.violations++
		if m.tryGrant(i, l) {
			m.granted++
			continue
		}
		l.ForceFullPower()
	}
	m.scheduleViolationSweeps()
}

// tryGrant implements §VI-A3: a violating link asks the head module for a
// 1/16 slice of the leftover AMS, up to 4 requests per epoch.
func (m *Manager) tryGrant(i int, l *link.Link) bool {
	if m.pool <= 0 || m.grantUnit <= 0 || m.grants[i] >= m.Cfg.MaxGrants {
		return false
	}
	if m.pool < m.grantUnit {
		return false
	}
	m.pool -= m.grantUnit
	m.linkAMS[i] += m.grantUnit
	m.grants[i]++
	if m.Cfg.ChargeControl {
		// Request travels up to the head, grant travels back.
		m.chargePath(l.Owner)
	}
	return true
}

// chargePath charges one control packet on each link between module and
// the processor, both directions.
func (m *Manager) chargePath(module int) {
	flits := packet.Control.Flits()
	for mod := module; mod != packet.ProcessorID; mod = m.Net.Topo.Parent(mod) {
		m.Net.Modules[mod].UpReq.ChargeControlFlits(flits)
		m.Net.Modules[mod].UpResp.ChargeControlFlits(flits)
	}
}

// chargeISP charges the per-iteration ISP message energy: each module
// sends one 64 B packet upstream during gather and receives one during
// scatter (§VI-A2).
func (m *Manager) chargeISP(iterations int) {
	if !m.Cfg.ChargeControl {
		return
	}
	flits := packet.Control.Flits() * iterations
	for _, mod := range m.Net.Modules {
		mod.UpReq.ChargeControlFlits(flits)
		mod.UpResp.ChargeControlFlits(flits)
	}
}

// Pool returns the leftover-AMS pool remaining for violation grants this
// epoch.
func (m *Manager) Pool() sim.Duration { return m.pool }

// SetPool installs the post-ISP leftover-AMS pool for the running epoch.
func (m *Manager) SetPool(pool sim.Duration) {
	m.pool = pool
	m.grantUnit = sim.Duration(float64(pool) * m.Cfg.GrantFraction)
}
