package core

import (
	"memnet/internal/sim"
	"memnet/internal/topology"
)

// ispRef is AwarePolicy.Reconfigure's ISP as it was written before isp
// replaced it: four self-recursive closures over shared state. The
// closure bodies are unchanged; the locals m, e, hasBW and hasROO stand
// in for the method's receiver state so that they read as they did. It
// is the reference FuzzISP holds isp to.
func ispRef(topo *topology.Topology, flo []floTable, src []bool, pool sim.Duration, cfg *Config, split bool) ispResult {
	m := &Manager{Cfg: *cfg}
	e := &EpochData{FLO: flo}
	hasBW, hasROO := split, split
	nLinks := len(flo)

	// --- ISP state ---
	sel := make([]Mode, nLinks)
	amsL := make([]sim.Duration, nLinks)
	isSRC := make([]bool, nLinks)
	for i := range sel {
		sel[i] = FullMode
	}
	copy(isSRC, src)

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

	return ispResult{sel: sel, ams: amsL, pool: pool, rounds: iterations}
}
