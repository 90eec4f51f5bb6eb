package core

import (
	"testing"

	"memnet/internal/metrics"
	"memnet/internal/sim"
)

// TestManagerAttachMetrics: the management series must agree with the
// manager's own accessors — epochs sampled as deltas sum to Epochs(),
// violations/grants match Violations() — and the slack gauge must start
// at zero (no traffic, no FEL accumulated) and stay finite.
func TestManagerAttachMetrics(t *testing.T) {
	k, net, m := attachWith(t, nil)
	m.AttachMetrics(nil) // disabled path registers nothing
	reg := metrics.New(epoch)
	m.AttachMetrics(reg)
	startClosedLoop(k, net, 8, func(i int) uint64 {
		return uint64(i%2)*uint64(net.Cfg.ChunkBytes) + uint64(i%97)*64
	}, 4*epoch)
	reg.Run(k, sim.Time(4*epoch))
	d := reg.Dump()
	if d == nil || d.Ticks == 0 {
		t.Fatalf("no samples: %+v", d)
	}
	var epochs, viol, grants float64
	var slack []float64
	for _, s := range d.Series {
		switch s.Name {
		case "core.epochs":
			for _, v := range s.Samples {
				epochs += v
			}
		case "core.violations":
			for _, v := range s.Samples {
				viol += v
			}
		case "core.grants":
			for _, v := range s.Samples {
				grants += v
			}
		case "core.epoch_slack_ps":
			slack = s.Samples
		}
	}
	if epochs != float64(m.Epochs()) {
		t.Errorf("epoch deltas sum to %v, Epochs() = %d", epochs, m.Epochs())
	}
	wantViol, wantGrant := m.Violations()
	if viol != float64(wantViol) || grants != float64(wantGrant) {
		t.Errorf("violations/grants = %v/%v, want %d/%d", viol, grants, wantViol, wantGrant)
	}
	if len(slack) == 0 {
		t.Fatal("slack gauge missing")
	}
	// Slack is α·ΣFEL − Σover: with traffic flowing it must move off
	// zero eventually and never be NaN.
	moved := false
	for _, v := range slack {
		if v != v {
			t.Fatal("slack gauge is NaN")
		}
		if v != 0 {
			moved = true
		}
	}
	if !moved {
		t.Error("slack gauge never moved under closed-loop traffic")
	}
}
