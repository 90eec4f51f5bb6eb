package core

import (
	"slices"

	"memnet/internal/sim"
	"memnet/internal/topology"
)

// ispResult is one ISP run's outcome, indexed like the links (2m is module
// m's request link, 2m+1 its response link).
type ispResult struct {
	sel    []Mode         // selected power mode per link
	ams    []sim.Duration // AMS each link keeps: the FLO of its mode
	pool   sim.Duration   // AMS returned to the head module for grants
	rounds int            // scatter/gather rounds run
}

// isp is Iterative Slowdown Propagation (§VI-A). It distributes pool
// (≥ 0, from the first gather) over the candidate links src in up to
// cfg.ISPIterations scatter/gather rounds, then runs a final monotonicity
// gather. Each link type forms its own tree shaped like topo. split gives
// request links cfg.RequestShare of each round's pool (§VI-B, a bandwidth
// mechanism combined with ROO). isp reads nothing but its arguments and
// modifies none of them.
//
// topology numbers modules parents-first, so an ascending walk over links
// visits every link after its parent (scatter's pre-order) and a
// descending walk visits it after all its children (the gathers'
// post-order). Children are folded in Children order, so ties break as
// they would in a recursive walk.
func isp(topo *topology.Topology, flo []floTable, src []bool, pool sim.Duration, cfg *Config, split bool) ispResult {
	nLinks := len(flo)
	src = slices.Clone(src)
	r := ispResult{sel: make([]Mode, nLinks), ams: make([]sim.Duration, nLinks)}
	for li := range r.sel {
		r.sel[li] = FullMode
	}
	dsrc := make([]int, nLinks)          // candidates strictly below each link
	hand := make([]sim.Duration, nLinks) // per-candidate slowdown handed down
	for ; r.rounds < cfg.ISPIterations; r.rounds++ {
		var nSRC [2]sim.Duration // request and response candidates
		for li, ok := range src {
			if ok {
				nSRC[li%2]++
			}
		}
		nReq, nResp := nSRC[0], nSRC[1]
		// Even with an empty pool the first scatter must run: modes with
		// zero FLO (idle links) are free and still need selecting.
		if nReq+nResp == 0 || (pool <= 0 && r.rounds > 0) {
			break
		}
		clear(dsrc)
		for li := nLinks - 1; li >= 2; li-- {
			up := upLink(topo, li)
			dsrc[up] += dsrc[li]
			if src[li] {
				dsrc[up]++
			}
		}
		var pcs [2]sim.Duration // per-candidate slowdown at the request and response roots
		switch {
		case nResp == 0:
			pcs[0] = pool / nReq
		case nReq == 0:
			pcs[1] = pool / nResp
		case split:
			// §VI-B: with combined mechanisms the head assigns 3/4 of
			// the unused AMS to request links.
			pcs[0] = sim.Duration(cfg.RequestShare*float64(pool)) / nReq
			pcs[1] = sim.Duration((1-cfg.RequestShare)*float64(pool)) / nResp
		default:
			per := pool / (nReq + nResp)
			pcs = [2]sim.Duration{per, per}
		}

		// Scatter: each candidate adds its PCS to its AMS and selects a
		// mode; what its mode leaves over goes in equal parts to the
		// candidates below it, or, with none below, back to the pool.
		pool = 0
		for li := 0; li < nLinks; li++ {
			in := pcs[li%2]
			if li >= 2 {
				in = hand[upLink(topo, li)]
			}
			hand[li] = in
			if !src[li] {
				continue
			}
			t := &flo[li]
			mode := t.selectMode(r.ams[li] + in)
			leftover := r.ams[li] + in - t.flo(mode)
			if dsrc[li] > 0 {
				hand[li] = in + leftover/sim.Duration(dsrc[li])
			} else if leftover > 0 {
				pool += leftover
			}
			r.sel[li] = mode
			r.ams[li] = t.flo(mode)
			// Stay a candidate only if not already at the cheapest mode
			// and the budget seen this round could fund a meaningful
			// fraction of the next cheaper mode's FLO.
			nc, ok := t.nextCheaper(mode)
			src[li] = ok && in+r.ams[li] >= sim.Duration(cfg.SRCFraction*float64(t.flo(nc)))
		}
		pool += gather(topo, flo, r.sel, r.ams)
	}
	// After a round's own gather this frees nothing and changes no mode;
	// it matters when no round ran.
	r.pool = pool + gather(topo, flo, r.sel, r.ams)
	return r
}

// gather enforces that an upstream link runs at a power mode no lower than
// any downstream link of its type: a link scoring below the best score
// beneath it takes that link's mode. It returns the FLO the raises free,
// the AMS released upstream.
func gather(topo *topology.Topology, flo []floTable, sel []Mode, ams []sim.Duration) (released sim.Duration) {
	// best[li] is the highest score in li's subtree and the mode holding it.
	bestScore := make([]float64, len(sel))
	bestMode := make([]Mode, len(sel))
	for li := len(sel) - 1; li >= 0; li-- {
		t := &flo[li]
		var maxScore float64
		var maxMode Mode
		have := false
		for _, c := range topo.Children(li / 2) {
			if cl := 2*c + li%2; !have || bestScore[cl] > maxScore {
				maxScore, maxMode, have = bestScore[cl], bestMode[cl], true
			}
		}
		myScore := t.score(sel[li])
		if have && myScore < maxScore-1e-12 {
			if d := t.flo(sel[li]) - t.flo(maxMode); d > 0 {
				released += d
			}
			sel[li] = maxMode
			ams[li] = t.flo(maxMode)
			myScore = t.score(maxMode)
		}
		if !have || myScore > maxScore {
			maxScore, maxMode = myScore, sel[li]
		}
		bestScore[li], bestMode[li] = maxScore, maxMode
	}
	return released
}

// upLink returns the link directly above link li in its tree (li ≥ 2).
func upLink(topo *topology.Topology, li int) int {
	return 2*topo.Parent(li/2) + li%2
}
