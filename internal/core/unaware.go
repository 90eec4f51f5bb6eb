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
		// Each connectivity link receives an equal portion (§V-A).
		share := amsM / 2
		for _, li := range []int{2 * i, 2*i + 1} {
			applyMode(m.Net.Links[li], e.FLO[li].selectMode(share))
			ams[li] = share
		}
	}
	return ams
}
