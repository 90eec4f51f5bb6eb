package core

import "memnet/internal/sim"

// UnawarePolicy is §V's network-unaware management: each module
// independently turns its own history into next-epoch link power modes.
//
// Per epoch, module m updates its cumulative Σ FEL and Σ (AEL − FEL)
// counters and computes its allowable memory slowdown
//
//	AMS_M(m, t+1) = α · Σ_t FEL(m,t) − Σ_t (AEL(m,t) − FEL(m,t))
//
// (one summand of Eq. 1). The module splits its AMS equally between its
// two connectivity links; each link controller then picks the lowest-power
// mode whose predicted future latency overhead (FLO) fits its share.
// Violation feedback ([23]) is handled by the Manager's sweeps against the
// returned per-link AMS budgets.
type UnawarePolicy struct{}

// Name implements Policy.
func (*UnawarePolicy) Name() string { return "network-unaware" }

// Reconfigure implements Policy.
func (*UnawarePolicy) Reconfigure(m *Manager, e *EpochData) []sim.Duration {
	n := m.Net.Topo.N()
	ams := make([]sim.Duration, 2*n)
	for i := 0; i < n; i++ {
		amsM := sim.Duration(m.Cfg.Alpha*float64(m.CumFEL[i])) - m.CumOver[i]
		if amsM < 0 {
			amsM = 0
		}
		// Each connectivity link receives an equal portion (§V-A), or a
		// traffic-proportional one under the ablation config.
		shares := [2]sim.Duration{amsM / 2, amsM / 2}
		if m.Cfg.ProportionalLinkSplit {
			reqReads := e.Counters[2*i].ReadPackets
			respReads := e.Counters[2*i+1].ReadPackets
			if total := reqReads + respReads; total > 0 {
				shares[0] = amsM * sim.Duration(reqReads) / sim.Duration(total)
				shares[1] = amsM - shares[0]
			}
		}
		for j, li := range []int{2 * i, 2*i + 1} {
			mode := e.FLO[li].selectMode(shares[j])
			applyMode(m.Net.Links[li], mode)
			ams[li] = shares[j]
		}
	}
	return ams
}
