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
type AwarePolicy struct {
	mgr *Manager
}

// Name implements Policy.
func (*AwarePolicy) Name() string { return "network-aware" }

// install wires the §VI-B response-path wakeup cascade. For every module:
// its response link may only turn off when its DRAM has no outstanding
// reads and every immediate downstream response link is off; it starts
// waking when its DRAM begins a read (wired by the network layer) or when
// a downstream response link starts waking plus a wait interval covering
// the downstream router, SERDES and transmission latencies.
func (p *AwarePolicy) install(m *Manager) {
	p.mgr = m
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
				// A failed downstream link counts as off: it will never
				// turn off again, and holding the parent on for it would
				// pin the whole upstream path at full power forever.
				if st := net.Modules[c].UpResp.State(); st != link.StateOff && st != link.StateFailed {
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

// Reconfigure implements Policy: Eq. 1 at network scope (the "first ISP
// gather"), then up to ISPIterations scatter/gather rounds, a final
// monotonicity gather, and the leftover pool for violation grants.
func (p *AwarePolicy) Reconfigure(m *Manager, e *EpochData) []sim.Duration {
	net := m.Net
	topo := net.Topo
	nLinks := len(net.Links)
	hasBW := net.Cfg.Mechanism != link.MechNone
	hasROO := net.Cfg.ROO

	// §VI-B: response-link wakeups are fully hidden, so their ROO
	// dimension costs nothing and is pinned to the most aggressive
	// threshold by the score function.
	if hasROO {
		for i := 0; i < topo.N(); i++ {
			t := &e.FLO[2*i+1]
			for r := range t.rooFLO {
				t.rooFLO[r] = 0
			}
		}
	}

	// --- First gather: network-level AMS (Eq. 1) with the §VI-C QD/QF
	// discount applied as overhead is reduced up the response path. ---
	overhead := make([]sim.Duration, nLinks)
	for i := range overhead {
		overhead[i] = e.Counters[i].ActualReadLatency - e.Counters[i].VirtualReadLatency[0]
	}
	var subtreeOver func(mod int) sim.Duration
	subtreeOver = func(mod int) sim.Duration {
		own := overhead[2*mod] + overhead[2*mod+1]
		var down sim.Duration
		for _, c := range topo.Children(mod) {
			down += subtreeOver(c)
		}
		if hasBW && down > 0 && !m.Cfg.DisableQDQF {
			resp := &e.Counters[2*mod+1]
			disc := sim.Duration(float64(down) * resp.QF())
			if resp.QD < disc {
				disc = resp.QD
			}
			down -= disc
		}
		return own + down
	}
	var totalFEL sim.Duration
	for i := 0; i < topo.N(); i++ {
		totalFEL += e.ModuleFEL[i]
		// Keep the per-module sums warm too, so diagnostics and custom
		// policies can compare the two accountings.
		m.CumFEL[i] += e.ModuleFEL[i]
		m.CumOver[i] += e.ModuleAEL[i] - e.ModuleFEL[i]
	}
	m.CumFELNet += totalFEL
	m.CumOverNet += subtreeOver(0)
	pool := sim.Duration(m.Cfg.Alpha*float64(m.CumFELNet)) - m.CumOverNet
	if pool < 0 {
		pool = 0
	}

	// --- ISP state ---
	sel := make([]Mode, nLinks)
	amsL := make([]sim.Duration, nLinks)
	isSRC := make([]bool, nLinks)
	for i := range sel {
		sel[i] = FullMode
	}
	for i := 0; i < topo.N(); i++ {
		// Request links are always candidates; response links only when
		// a bandwidth mechanism exists (for ROO-only networks their
		// wakeups are hidden and they need no slowdown budget). Failed
		// links leave the slack-distribution domain entirely.
		isSRC[2*i] = (hasBW || hasROO) && !net.Links[2*i].Failed()
		isSRC[2*i+1] = hasBW && !net.Links[2*i+1].Failed()
	}

	// dsrc[li]: SRC links strictly below li in its same-type tree.
	dsrc := make([]int, nLinks)
	var computeDSRC func(mod, off int) int // off 0=request, 1=response
	computeDSRC = func(mod, off int) int {
		li := 2*mod + off
		below := 0
		for _, c := range topo.Children(mod) {
			below += computeDSRC(c, off)
		}
		dsrc[li] = below
		if isSRC[li] {
			below++
		}
		return below
	}

	countSRC := func() (req, resp int) {
		for i := 0; i < topo.N(); i++ {
			if isSRC[2*i] {
				req++
			}
			if isSRC[2*i+1] {
				resp++
			}
		}
		return req, resp
	}

	// scatter walks one link-type tree distributing per-candidate
	// slowdown (PCS) and selecting modes; leftovers with no downstream
	// candidates pool for the next gather.
	var leafPool sim.Duration
	var scatter func(mod, off int, pcs sim.Duration)
	scatter = func(mod, off int, pcs sim.Duration) {
		li := 2*mod + off
		next := pcs
		if isSRC[li] {
			t := &e.FLO[li]
			amsL[li] += pcs
			mode := t.selectMode(amsL[li])
			flo := t.flo(mode)
			leftover := amsL[li] - flo
			if dsrc[li] > 0 {
				next = pcs + leftover/sim.Duration(dsrc[li])
			} else if leftover > 0 {
				leafPool += leftover
			}
			sel[li] = mode
			amsL[li] = flo
			// Stay a candidate only if not already at the cheapest mode
			// and the budget seen this round could fund a meaningful
			// fraction of the next cheaper mode's FLO.
			if nc, ok := t.nextCheaper(mode); ok {
				need := sim.Duration(m.Cfg.SRCFraction * float64(t.flo(nc)))
				isSRC[li] = pcs+amsL[li] >= need
			} else {
				isSRC[li] = false
			}
		}
		for _, c := range topo.Children(mod) {
			scatter(c, off, next)
		}
	}

	// gather enforces that an upstream link runs at a power mode no lower
	// than any downstream link of its type, releasing the FLO difference
	// upstream as unused AMS; it returns the subtree's max selected score
	// and mode.
	var releasePool sim.Duration
	var gatherMono func(mod, off int) (float64, Mode, bool)
	gatherMono = func(mod, off int) (float64, Mode, bool) {
		li := 2*mod + off
		t := &e.FLO[li]
		var maxScore float64
		var maxMode Mode
		have := false
		for _, c := range topo.Children(mod) {
			s, md, ok := gatherMono(c, off)
			if ok && (!have || s > maxScore) {
				maxScore, maxMode, have = s, md, true
			}
		}
		myScore := t.score(sel[li])
		if have && myScore < maxScore-1e-12 {
			released := t.flo(sel[li]) - t.flo(maxMode)
			if released > 0 {
				releasePool += released
			}
			sel[li] = maxMode
			amsL[li] = t.flo(maxMode)
			myScore = t.score(maxMode)
		}
		if !have || myScore > maxScore {
			return myScore, sel[li], true
		}
		return maxScore, maxMode, true
	}

	iterations := 0
	for iter := 0; iter < m.Cfg.ISPIterations; iter++ {
		nReq, nResp := countSRC()
		// Even with an empty pool the first scatter must run: modes with
		// zero FLO (idle links) are free and still need selecting.
		if nReq+nResp == 0 || (pool <= 0 && iter > 0) {
			break
		}
		if pool < 0 {
			pool = 0
		}
		iterations++
		computeDSRC(0, 0)
		computeDSRC(0, 1)
		var pcsReq, pcsResp sim.Duration
		switch {
		case nResp == 0:
			if nReq > 0 {
				pcsReq = pool / sim.Duration(nReq)
			}
		case nReq == 0:
			pcsResp = pool / sim.Duration(nResp)
		case hasBW && hasROO:
			// §VI-B: with combined mechanisms the head assigns 3/4 of
			// the unused AMS to request links.
			pcsReq = sim.Duration(m.Cfg.RequestShare*float64(pool)) / sim.Duration(nReq)
			pcsResp = sim.Duration((1-m.Cfg.RequestShare)*float64(pool)) / sim.Duration(nResp)
		default:
			per := pool / sim.Duration(nReq+nResp)
			pcsReq, pcsResp = per, per
		}
		leafPool, releasePool = 0, 0
		if nReq > 0 {
			scatter(0, 0, pcsReq)
		}
		if nResp > 0 {
			scatter(0, 1, pcsResp)
		}
		gatherMono(0, 0)
		gatherMono(0, 1)
		pool = leafPool + releasePool
	}
	// A final monotonicity pass covers the degenerate no-iteration case.
	if iterations == 0 {
		releasePool = 0
		gatherMono(0, 0)
		gatherMono(0, 1)
		pool += releasePool
	}

	ams := make([]sim.Duration, nLinks)
	for li, l := range net.Links {
		if l.Failed() {
			// Dead links draw no power and serve no reads; exempt them
			// from violation monitoring instead of flagging a zero budget.
			ams[li] = sim.Duration(1) << 60
			continue
		}
		if hasROO && l.Dir == link.DirResponse {
			// §VI-B: response-link wakeups are hidden by the cascade, so
			// their ROO dimension is pinned to the most aggressive
			// threshold regardless of budget.
			sel[li].ROO = 0
		}
		applyMode(l, sel[li])
		ams[li] = amsL[li]
		if !hasBW && l.Dir == link.DirResponse {
			// ROO-only response links carry no budget: their wakeups
			// are hidden by the cascade, so they are exempt from
			// violation monitoring rather than perpetually "violating"
			// a zero budget.
			ams[li] = sim.Duration(1) << 60
		}
	}
	m.SetPool(pool)
	m.chargeISP(iterations)
	return ams
}
