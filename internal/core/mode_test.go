package core

import (
	"testing"

	"memnet/internal/link"
	"memnet/internal/packet"
	"memnet/internal/sim"
)

// feedLink runs a synthetic arrival pattern through a fresh link and
// returns its epoch counters and FLO table.
func feedLink(t *testing.T, cfg link.Config, dir link.Direction, gaps []sim.Duration) (*link.Link, link.EpochCounters, floTable) {
	t.Helper()
	k := sim.NewKernel()
	if cfg.FullWatts == 0 {
		cfg.FullWatts = 0.586
	}
	l := link.New(k, cfg, 0, dir, 0, packet.ProcessorID, 0, 1)
	l.AttachMonitors()
	l.Deliver = func(*packet.Packet) {}
	kind := packet.ReadResp
	if dir == link.DirRequest {
		kind = packet.ReadReq
	}
	for i, g := range gaps {
		k.Run(k.Now() + g)
		l.Enqueue(&packet.Packet{ID: uint64(i), Kind: kind})
	}
	k.RunAll()
	ec := l.Mon().SnapshotAndReset(k.Now())
	return l, ec, buildFLOTable(l, &ec, 100*sim.Microsecond)
}

func denseGaps(n int, gap sim.Duration) []sim.Duration {
	out := make([]sim.Duration, n)
	for i := range out {
		out[i] = gap
	}
	return out
}

func TestBWFLOMonotone(t *testing.T) {
	_, _, tab := feedLink(t, link.Config{Mechanism: link.MechVWL}, link.DirResponse,
		denseGaps(200, 10*sim.Nanosecond))
	for m := 1; m < len(tab.bwFLO); m++ {
		if tab.bwFLO[m] < tab.bwFLO[m-1] {
			t.Fatalf("bwFLO not monotone: %v", tab.bwFLO)
		}
	}
	if tab.bwFLO[3] == 0 {
		t.Fatal("1-lane FLO should be positive under dense traffic")
	}
}

func TestROOFLOFromHistogram(t *testing.T) {
	// Long gaps (~1 µs) between packets: thresholds 32/128/512 all see a
	// wakeup per gap; 2048 sees none.
	l, ec, tab := feedLink(t, link.Config{ROO: true, Wakeup: 14 * sim.Nanosecond},
		link.DirResponse, denseGaps(50, sim.Microsecond))
	_ = l
	if ec.IdleOverCount[0] == 0 || ec.IdleOverCount[3] != 0 {
		t.Fatalf("histogram: %v", ec.IdleOverCount)
	}
	// Sparse arrivals: no sampled wakeup-window arrivals, so per-wakeup
	// cost = wakeup latency exactly.
	want := sim.Duration(ec.IdleOverCount[0]) * 14 * sim.Nanosecond
	if tab.rooFLO[0] != want {
		t.Fatalf("rooFLO[0] = %v, want %v", tab.rooFLO[0], want)
	}
	if tab.rooFLO[3] != 0 {
		t.Fatalf("rooFLO[2048] = %v, want 0", tab.rooFLO[3])
	}
	// Off-fraction must decrease with threshold.
	for i := 1; i < link.NumROOModes; i++ {
		if tab.offFrac[i] > tab.offFrac[i-1] {
			t.Fatalf("offFrac not monotone: %v", tab.offFrac)
		}
	}
}

func TestRequestLinkROOPenaltyDoubled(t *testing.T) {
	// §V-B: request links add an extra wakeup×arrivals term because
	// delayed requests inflate into 5× larger responses. With dense
	// bursts after each gap the penalty must exceed the response link's.
	burst := func() []sim.Duration {
		var gaps []sim.Duration
		for i := 0; i < 40; i++ {
			gaps = append(gaps, sim.Microsecond)
			for j := 0; j < 10; j++ {
				gaps = append(gaps, sim.Nanosecond)
			}
		}
		return gaps
	}
	_, _, reqTab := feedLink(t, link.Config{ROO: true}, link.DirRequest, burst())
	_, _, respTab := feedLink(t, link.Config{ROO: true}, link.DirResponse, burst())
	if reqTab.rooFLO[0] <= respTab.rooFLO[0] {
		t.Fatalf("request rooFLO %v not above response %v", reqTab.rooFLO[0], respTab.rooFLO[0])
	}
}

func TestSelectModeRespectsBudget(t *testing.T) {
	tab := floTable{
		mech:  link.MechVWL,
		bwFLO: []sim.Duration{0, 100, 200, 400},
	}
	// Budget 150: modes 0 and 1 feasible; mode 1 has lower power.
	if got := tab.selectMode(150); got.BW != 1 {
		t.Fatalf("selectMode(150) = %+v, want BW 1", got)
	}
	// Budget 1000: everything feasible; 1-lane wins.
	if got := tab.selectMode(1000); got.BW != 3 {
		t.Fatalf("selectMode(1000) = %+v, want BW 3", got)
	}
	// Budget 0: full power only.
	if got := tab.selectMode(0); got != FullMode {
		t.Fatalf("selectMode(0) = %+v, want full", got)
	}
}

func TestSelectModeCombined(t *testing.T) {
	tab := floTable{
		mech:    link.MechVWL,
		roo:     true,
		bwFLO:   []sim.Duration{0, 100, 200, 400},
		rooFLO:  [link.NumROOModes]sim.Duration{80, 40, 10, 0},
		offFrac: [link.NumROOModes]float64{0.9, 0.5, 0.2, 0},
	}
	// Budget 140: {BW0 + ROO0} costs 80 and scores 1×(0.1+0.9×0.01) ≈
	// 0.109 — sleeping 90% of the time at full width beats any narrower
	// always-on mode within budget.
	got := tab.selectMode(140)
	if got.BW != 0 || got.ROO != 0 {
		t.Fatalf("selectMode(140) = %+v, want {0,0}", got)
	}
	// Unlimited: lowest score = 1 lane + most aggressive ROO.
	got = tab.selectMode(1 << 50)
	if got.BW != 3 || got.ROO != 0 {
		t.Fatalf("selectMode(inf) = %+v, want {3,0}", got)
	}
}

func TestNextCheaperAndIsLowest(t *testing.T) {
	tab := floTable{mech: link.MechVWL, bwFLO: []sim.Duration{0, 1, 2, 3}}
	nc, ok := tab.nextCheaper(Mode{BW: 0, ROO: link.ROOFullMode})
	if !ok || nc.BW != 1 {
		t.Fatalf("nextCheaper(full) = %+v, %v", nc, ok)
	}
	if _, ok := tab.nextCheaper(Mode{BW: 3, ROO: link.ROOFullMode}); ok {
		t.Fatal("1-lane mode has a cheaper mode; want it lowest")
	}
}

func TestScoreOrdering(t *testing.T) {
	tab := floTable{
		mech:    link.MechVWL,
		roo:     true,
		bwFLO:   []sim.Duration{0, 0, 0, 0},
		offFrac: [link.NumROOModes]float64{0.8, 0.4, 0.1, 0},
	}
	// More aggressive ROO must score lower at equal bandwidth.
	for r := 1; r < link.NumROOModes; r++ {
		a := tab.score(Mode{BW: 0, ROO: r - 1})
		b := tab.score(Mode{BW: 0, ROO: r})
		if a >= b {
			t.Fatalf("score not increasing with threshold: %v vs %v", a, b)
		}
	}
	// Fewer lanes must score lower at equal ROO.
	for bw := 1; bw < link.NumBWModes; bw++ {
		if tab.score(Mode{BW: bw, ROO: 3}) >= tab.score(Mode{BW: bw - 1, ROO: 3}) {
			t.Fatal("score not decreasing with narrower links")
		}
	}
}

func TestApplyMode(t *testing.T) {
	k := sim.NewKernel()
	l := link.New(k, link.Config{Mechanism: link.MechVWL, ROO: true, FullWatts: 1}, 0,
		link.DirRequest, 0, packet.ProcessorID, 0, 1)
	applyMode(l, Mode{BW: 2, ROO: 1})
	if l.BWTarget() != 2 || l.ROOMode() != 1 {
		t.Fatalf("applyMode: bw=%d roo=%d", l.BWTarget(), l.ROOMode())
	}
}
