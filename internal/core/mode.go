// Package core implements the paper's power-management policies — the
// primary contribution of the work:
//
//   - network-unaware management (§V): each module independently converts
//     its allowable memory slowdown (AMS, Eq. 1) into per-link power-mode
//     choices using per-mode delay monitors ([20]), idle-interval
//     histograms ([21]), proactive response wakeup ([22]) and violation
//     feedback ([23]);
//   - network-aware management (§VI): Iterative Slowdown Propagation (ISP)
//     redistributes the network-level AMS so busier links never run at
//     lower power modes than less busy ones, hides response-path wakeups
//     with a cascade, and discounts downstream latency that upstream
//     congestion would have absorbed (QD/QF);
//   - the static fat/tapered-tree baseline of §VII-A.
package core

import (
	"math"

	"memnet/internal/link"
	"memnet/internal/sim"
)

// Mode is one combined power mode: a bandwidth mode index (VWL lanes or
// DVFS operating point; 0 = full) and a ROO idleness-threshold index
// (ROOFullMode = least aggressive).
type Mode struct {
	BW  int
	ROO int
}

// FullMode is the highest-power mode.
var FullMode = Mode{BW: 0, ROO: link.ROOFullMode}

// floTable holds one link's per-mode future-latency-overhead estimates and
// power scores for the epoch being planned, derived from the previous
// epoch's counters.
type floTable struct {
	mech    link.Mechanism
	roo     bool
	bwFLO   []sim.Duration // indexed by BW mode
	rooFLO  [link.NumROOModes]sim.Duration
	offFrac [link.NumROOModes]float64 // predicted off-time fraction per threshold
}

// buildFLOTable derives the table from an epoch's counters.
//
// Bandwidth FLO is the delay-monitor difference: the virtual aggregate
// read latency under mode m minus under full power ([20]); for DVFS the
// virtual queues already include the slower SERDES.
//
// ROO FLO follows [21]: (number of idle intervals longer than the mode's
// threshold) × (estimated latency per wakeup), where the per-wakeup cost
// is wakeup + wakeup×E[read arrivals during a wakeup]; request links add a
// further wakeup×E[arrivals] because delayed requests inflate into 5×
// larger response packets downstream (§V-B).
func buildFLOTable(l *link.Link, ec *link.EpochCounters, epochLen sim.Duration) floTable {
	cfg := l.Config()
	t := floTable{mech: cfg.Mechanism, roo: cfg.ROO}
	n := link.NumModes(cfg.Mechanism)
	t.bwFLO = make([]sim.Duration, n)
	for m := 1; m < n; m++ {
		d := ec.VirtualReadLatency[m] - ec.VirtualReadLatency[0]
		if d < 0 {
			d = 0
		}
		t.bwFLO[m] = d
	}
	if cfg.ROO {
		avgArr := ec.AvgWakeupArrivals()
		perWake := float64(cfg.Wakeup) * (1 + avgArr)
		if l.Dir == link.DirRequest {
			perWake += float64(cfg.Wakeup) * avgArr
		}
		for i := 0; i < link.NumROOModes; i++ {
			t.rooFLO[i] = sim.Duration(float64(ec.IdleOverCount[i]) * perWake)
			if epochLen > 0 {
				f := float64(ec.IdleOverTime[i]) / float64(epochLen)
				if f > 1 {
					f = 1
				}
				t.offFrac[i] = f
			}
		}
	}
	return t
}

// flo returns the combined FLO of mode m.
func (t *floTable) flo(m Mode) sim.Duration {
	f := t.bwFLO[m.BW]
	if t.roo {
		f += t.rooFLO[m.ROO]
	}
	return f
}

// score estimates the mode's average power as a fraction of full link
// power: the bandwidth mode's power factor, discounted by the predicted
// off-time under the ROO threshold. Lower is better.
func (t *floTable) score(m Mode) float64 {
	s := link.PowerFactor(t.mech, m.BW)
	if t.roo {
		off := t.offFrac[m.ROO]
		s *= (1 - off) + off*link.OffPowerFraction
	}
	return s
}

// rooRange bounds the ROO dimension of the link's mode space, [lo, hi):
// ROO-disabled links only vary the bandwidth dimension; MechNone links
// only the ROO dimension. selectMode and nextCheaper walk bandwidth
// modes in the outer loop and this range in the inner one, in place,
// because they run for every link in every ISP round.
func (t *floTable) rooRange() (lo, hi int) {
	if !t.roo {
		return link.ROOFullMode, link.ROOFullMode + 1
	}
	return 0, link.NumROOModes
}

// selectMode returns the lowest-power mode whose FLO fits within ams,
// falling back to full power. Ties break toward lower FLO, then full
// bandwidth, for determinism.
func (t *floTable) selectMode(ams sim.Duration) Mode {
	best := FullMode
	bestScore := t.score(best)
	bestFLO := t.flo(best)
	lo, hi := t.rooRange()
	for b := range t.bwFLO {
		for r := lo; r < hi; r++ {
			m := Mode{BW: b, ROO: r}
			f := t.flo(m)
			if f > ams {
				continue
			}
			s := t.score(m)
			switch {
			case s < bestScore-1e-12,
				math.Abs(s-bestScore) <= 1e-12 && f < bestFLO,
				math.Abs(s-bestScore) <= 1e-12 && f == bestFLO && m.BW < best.BW:
				best, bestScore, bestFLO = m, s, f
			}
		}
	}
	return best
}

// nextCheaper returns the highest-power mode strictly cheaper than m and
// whether one exists (the ISP slowdown-receiving-candidate test needs its
// FLO).
func (t *floTable) nextCheaper(m Mode) (Mode, bool) {
	cur := t.score(m)
	found := false
	var best Mode
	bestScore := -1.0
	lo, hi := t.rooRange()
	for b := range t.bwFLO {
		for r := lo; r < hi; r++ {
			c := Mode{BW: b, ROO: r}
			s := t.score(c)
			if s < cur-1e-12 && s > bestScore {
				best, bestScore, found = c, s, true
			}
		}
	}
	return best, found
}

// apply programs the link with mode m.
func applyMode(l *link.Link, m Mode) {
	l.SetBWMode(m.BW)
	if l.Config().ROO {
		l.SetROOMode(m.ROO)
	}
}
