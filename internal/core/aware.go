package core

import (
	"memnet/internal/link"
	"memnet/internal/packet"
	"memnet/internal/sim"
)

// AwarePolicy is §VI's network-aware management. It reuses the unaware
// scheme's counters and Eq. 1 but redistributes the *network-level* AMS
// with Iterative Slowdown Propagation (ISP) so that busier links always
// operate at a power mode no lower than less busy links; it hides the
// wakeup latency of the whole response path with a wake cascade (§VI-B);
// and it discounts downstream latency overhead that congested upstream
// response links would have absorbed anyway (QD/QF, §VI-C). Leftover AMS
// pools at the head module and is granted in 1/16 slices to links that
// would otherwise violate (§VI-A3).
type AwarePolicy struct{}

// Name implements Policy.
func (*AwarePolicy) Name() string { return "network-aware" }

// install wires the §VI-B response-path wakeup cascade. For every module:
// its response link may only turn off when its DRAM has no outstanding
// reads and every immediate downstream response link is off; it starts
// waking when its DRAM begins a read (wired by the network layer) or when
// a downstream response link starts waking plus a wait interval covering
// the downstream router, SERDES and transmission latencies.
func (*AwarePolicy) install(m *Manager) {
	if !m.Net.Cfg.ROO || m.Cfg.DisableWakeCascade {
		return
	}
	topo := m.Net.Topo
	for i := range m.Net.Modules {
		mod := m.Net.Modules[i]
		children := topo.Children(i)
		net := m.Net
		mod.UpResp.HoldOn = func() bool {
			if mod.DRAM.OutstandingReads() > 0 {
				return true
			}
			for _, c := range children {
				if net.Modules[c].UpResp.State() != link.StateOff {
					return true
				}
			}
			return false
		}
		parent := topo.Parent(i)
		if parent == packet.ProcessorID {
			continue
		}
		parentResp := m.Net.Modules[parent].UpResp
		resp := mod.UpResp
		mech := resp.Config().Mechanism
		wakeParent := parentResp.WakeAction()
		resp.OnWakeStart = func() {
			// Wait interval: router latency + the downstream link's
			// current SERDES and (response packet) transmission
			// latencies — constants within an epoch (§VI-B).
			mode := resp.BWTarget()
			bw := link.BWFactor(mech, mode)
			tx := sim.Duration(float64(5*link.FlitTimeFull)/bw + 0.5)
			wait := link.RouterLatency() + link.SERDESLatency(mech, mode) + tx
			m.Kernel.AfterAction(wait, wakeParent)
		}
		resp.OnEnqueue = func() {
			// A response is about to travel upstream; pre-wake the next
			// hop if it is off.
			if parentResp.State() == link.StateOff {
				parentResp.Wake()
			}
		}
		resp.OnTurnOff = func() {
			// The upstream response link may now satisfy its own
			// turn-off condition.
			parentResp.MaybeTurnOff()
		}
	}
}

// Reconfigure implements Policy in three steps: the first ISP gather
// (Eq. 1 at network scope with the §VI-C QD/QF discount), isp, and apply.
func (*AwarePolicy) Reconfigure(m *Manager, e *EpochData) []sim.Duration {
	net := m.Net
	topo := net.Topo
	n := topo.N()
	hasBW := net.Cfg.Mechanism != link.MechNone
	hasROO := net.Cfg.ROO

	// §VI-B: response-link wakeups are fully hidden, so their ROO
	// dimension costs nothing and is pinned to the most aggressive
	// threshold by the score function.
	if hasROO {
		for i := 0; i < n; i++ {
			e.FLO[2*i+1].rooFLO = [link.NumROOModes]sim.Duration{}
		}
	}

	// First gather: each module's overhead plus its subtree's, discounted
	// by QD/QF as it is reduced up the response path. Children have higher
	// IDs than their parents, so a descending walk finishes every subtree
	// before its root.
	sub := make([]sim.Duration, n)
	for i := n - 1; i >= 0; i-- {
		var down sim.Duration
		for _, c := range topo.Children(i) {
			down += sub[c]
		}
		req, resp := &e.Counters[2*i], &e.Counters[2*i+1]
		if hasBW && down > 0 && !m.Cfg.DisableQDQF {
			down -= min(resp.QD, sim.Duration(float64(down)*resp.QF()))
		}
		sub[i] = req.ActualReadLatency - req.VirtualReadLatency[0] +
			resp.ActualReadLatency - resp.VirtualReadLatency[0] + down
	}
	for _, fel := range e.ModuleFEL {
		m.CumFELNet += fel
	}
	m.CumOverNet += sub[0]
	pool := max(0, sim.Duration(m.Cfg.Alpha*float64(m.CumFELNet))-m.CumOverNet)

	// Request links are always candidates; response links only when a
	// bandwidth mechanism exists (for ROO-only networks their wakeups are
	// hidden and they need no slowdown budget).
	src := make([]bool, len(net.Links))
	for i := 0; i < n; i++ {
		src[2*i] = hasBW || hasROO
		src[2*i+1] = hasBW
	}
	r := isp(topo, e.FLO, src, pool, &m.Cfg, hasBW && hasROO)

	ams := make([]sim.Duration, len(net.Links))
	for li, l := range net.Links {
		if hasROO && l.Dir == link.DirResponse {
			// §VI-B: response-link wakeups are hidden by the cascade, so
			// their ROO dimension is pinned to the most aggressive
			// threshold regardless of budget.
			r.sel[li].ROO = 0
		}
		applyMode(l, r.sel[li])
		ams[li] = r.ams[li]
		if !hasBW && l.Dir == link.DirResponse {
			// ROO-only response links carry no budget: their wakeups
			// are hidden by the cascade, so they are exempt from
			// violation monitoring rather than perpetually "violating"
			// a zero budget.
			ams[li] = unlimitedAMS
		}
	}
	m.SetPool(r.pool)
	m.chargeISP(r.rounds)
	return ams
}
