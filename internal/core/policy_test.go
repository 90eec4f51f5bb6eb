package core

import (
	"testing"

	"memnet/internal/link"
	"memnet/internal/network"
	"memnet/internal/packet"
	"memnet/internal/sim"
	"memnet/internal/topology"
)

// testNet assembles a network + manager for policy integration tests.
func testNet(t *testing.T, kind topology.Kind, n int, mech link.Mechanism, roo bool,
	policy PolicyKind, alpha float64) (*sim.Kernel, *network.Network, *Manager) {
	t.Helper()
	k := sim.NewKernel()
	topo, err := topology.Build(kind, n)
	if err != nil {
		t.Fatal(err)
	}
	cfg := network.DefaultConfig()
	cfg.Mechanism = mech
	cfg.ROO = roo
	net := network.New(k, topo, cfg)
	mgr := Attach(k, net, DefaultConfig(policy, alpha))
	return k, net, mgr
}

// driveClosedLoop keeps `slots` reads outstanding to module-selection
// function pick until the kernel reaches until.
func driveClosedLoop(k *sim.Kernel, net *network.Network, slots int,
	pick func(i int) uint64, until sim.Time) {
	startClosedLoop(k, net, slots, pick, until)
	k.Run(until)
}

// startClosedLoop is driveClosedLoop without the run: it injects the
// first reads and arms the re-injection, for a caller that runs the
// kernel itself.
func startClosedLoop(k *sim.Kernel, net *network.Network, slots int,
	pick func(i int) uint64, until sim.Time) {
	count := 0
	net.OnReadComplete = func(p *packet.Packet) {
		if k.Now() < until {
			count++
			net.InjectRead(pick(count), p.Core)
		}
	}
	for s := 0; s < slots; s++ {
		net.InjectRead(pick(s), s)
	}
}

const epoch = 100 * sim.Microsecond

func TestUnawareIdleNetworkDropsToLowestMode(t *testing.T) {
	k, net, mgr := testNet(t, topology.DaisyChain, 2, link.MechVWL, false, PolicyUnaware, 0.05)
	k.Run(3 * epoch)
	if mgr.Epochs() != 3 {
		t.Fatalf("epochs = %d", mgr.Epochs())
	}
	for _, l := range net.Links {
		if l.BWTarget() != 3 {
			t.Fatalf("%v bw=%d, want 3 (idle network, zero FLO everywhere)", l, l.BWTarget())
		}
	}
}

func TestUnawareBusyLinkStaysNearFullPower(t *testing.T) {
	// Saturating traffic to the deepest module with a tiny alpha: the
	// response path cannot afford narrow modes.
	k, net, _ := testNet(t, topology.DaisyChain, 2, link.MechVWL, false, PolicyUnaware, 0.01)
	driveClosedLoop(k, net, 32, func(i int) uint64 {
		return uint64(i%997) * 64 // module 0, spread over vaults
	}, 5*epoch)
	// Module 0's response link carries 5-flit responses at high rate.
	l := net.Modules[0].UpResp
	if l.BWTarget() > 1 {
		t.Fatalf("saturated response link at bw=%d", l.BWTarget())
	}
}

func TestUnawareViolationForcesFullPower(t *testing.T) {
	// Epoch 1-2 idle (policy drops everything to 1 lane), then a heavy
	// burst arrives: the violation sweep must force full power.
	k, net, mgr := testNet(t, topology.DaisyChain, 2, link.MechVWL, false, PolicyUnaware, 0.025)
	k.Run(2 * epoch)
	for _, l := range net.Links {
		if l.BWTarget() != 3 {
			t.Fatalf("precondition: %v bw=%d, want 3", l, l.BWTarget())
		}
	}
	driveClosedLoop(k, net, 64, func(i int) uint64 {
		return uint64(net.Cfg.ChunkBytes) + uint64(i%997)*64 // module 1
	}, 3*epoch)
	viol, _ := mgr.Violations()
	if viol == 0 {
		t.Fatal("no violations recorded despite saturating burst on 1-lane links")
	}
	forced := false
	for _, l := range net.Links {
		if l.Forced() || l.BWTarget() == 0 {
			forced = true
		}
	}
	if !forced {
		t.Fatal("no link was forced to full power")
	}
}

func TestUnawareRespectsAlphaUnderLoad(t *testing.T) {
	// End-to-end: managed throughput within a few α of full power.
	run := func(policy PolicyKind) float64 {
		k, net, _ := testNet(t, topology.DaisyChain, 3, link.MechVWL, true, policy, 0.05)
		rng := sim.NewRNG(11)
		pick := func(i int) uint64 {
			return uint64(rng.Intn(3))*uint64(net.Cfg.ChunkBytes) + uint64(rng.Intn(4096))*64
		}
		completed := 0
		until := 6 * epoch
		net.OnReadComplete = func(p *packet.Packet) {
			if k.Now() < until {
				completed++
				net.InjectRead(pick(completed), p.Core)
			}
		}
		for s := 0; s < 24; s++ {
			net.InjectRead(pick(s), s)
		}
		k.Run(until)
		return float64(completed)
	}
	fp := run(PolicyNone)
	un := run(PolicyUnaware)
	deg := 1 - un/fp
	if deg > 0.12 {
		t.Fatalf("unaware degradation = %.1f%%, far beyond alpha", 100*deg)
	}
}

func TestAwareMonotonicityInvariant(t *testing.T) {
	// Traffic concentrated on module 0 leaves deep links idle; after ISP
	// an upstream link must never be at a lower-bandwidth mode index than
	// any downstream link of the same type.
	k, net, _ := testNet(t, topology.DaisyChain, 4, link.MechVWL, false, PolicyAware, 0.05)
	driveClosedLoop(k, net, 16, func(i int) uint64 {
		return uint64(i%997) * 64 // all to module 0
	}, 5*epoch)
	topo := net.Topo
	for m := 0; m < topo.N(); m++ {
		for _, c := range topo.Children(m) {
			for off := 0; off < 2; off++ {
				up := net.Links[2*m+off]
				down := net.Links[2*c+off]
				if up.BWTarget() > down.BWTarget() {
					t.Fatalf("monotonicity violated: %v bw=%d above %v bw=%d",
						up, up.BWTarget(), down, down.BWTarget())
				}
			}
		}
	}
}

func TestAwareIdleNetworkUsesLowestModes(t *testing.T) {
	k, net, mgr := testNet(t, topology.Star, 4, link.MechVWL, true, PolicyAware, 0.05)
	k.Run(3 * epoch)
	for _, l := range net.Links {
		if l.BWTarget() != 3 {
			t.Fatalf("%v bw=%d, want 3", l, l.BWTarget())
		}
	}
	if mgr.Pool() < 0 {
		t.Fatal("negative leftover pool")
	}
}

func TestAwareROOResponseLinksPinnedAggressive(t *testing.T) {
	// §VI-B: with hidden wakeups, response links take the most
	// aggressive threshold and are not slowdown candidates.
	k, net, _ := testNet(t, topology.DaisyChain, 2, link.MechNone, true, PolicyAware, 0.05)
	driveClosedLoop(k, net, 4, func(i int) uint64 {
		return uint64(i%2)*uint64(net.Cfg.ChunkBytes) + uint64(i%97)*64
	}, 3*epoch)
	for _, m := range net.Modules {
		if m.UpResp.ROOMode() != 0 {
			t.Fatalf("response link ROO mode = %d, want 0", m.UpResp.ROOMode())
		}
	}
}

func TestWakeCascadeHidesResponseWakeups(t *testing.T) {
	// §VI-B ablation: sparse reads to the deepest module of a cold
	// 4-chain pay one 14 ns wakeup per upstream response hop unless the
	// cascade pre-wakes the path. Same policy, same budgets; only the
	// cascade differs.
	run := func(disableCascade bool) sim.Duration {
		k := sim.NewKernel()
		topo, err := topology.Build(topology.DaisyChain, 4)
		if err != nil {
			t.Fatal(err)
		}
		ncfg := network.DefaultConfig()
		ncfg.ROO = true
		net := network.New(k, topo, ncfg)
		mcfg := DefaultConfig(PolicyAware, 2.0)
		mcfg.DisableWakeCascade = disableCascade
		Attach(k, net, mcfg)
		var total sim.Duration
		reads := 0
		net.OnReadComplete = func(p *packet.Packet) {
			if reads >= 100 { // skip the first epochs while modes settle
				total += k.Now() - p.Issued
			}
			reads++
		}
		for i := 0; i < 300; i++ {
			k.Run(k.Now() + 3*sim.Microsecond)
			net.InjectRead(3*uint64(net.Cfg.ChunkBytes)+uint64(i)*64, 0)
		}
		k.Run(k.Now() + 10*sim.Microsecond)
		if reads < 300 {
			t.Fatalf("only %d reads completed", reads)
		}
		return total / sim.Duration(reads-100)
	}
	with := run(false)
	without := run(true)
	// Three upstream response hops × 14 ns wakeup should be hidden.
	saved := without - with
	if saved < 30*sim.Nanosecond {
		t.Fatalf("cascade saved only %v (with=%v without=%v), want ≥30ns", saved, with, without)
	}
}

func TestAwareGrantsAbsorbViolations(t *testing.T) {
	k, net, mgr := testNet(t, topology.DaisyChain, 2, link.MechVWL, false, PolicyAware, 0.05)
	// Alternate idle and bursty epochs so some violations occur.
	rng := sim.NewRNG(3)
	until := 8 * epoch
	var inject func()
	inject = func() {
		if k.Now() >= until {
			return
		}
		burst := 1 + rng.Intn(30)
		for i := 0; i < burst; i++ {
			net.InjectRead(uint64(rng.Intn(2))*uint64(net.Cfg.ChunkBytes)+uint64(rng.Intn(997))*64, -1)
		}
		k.After(sim.Duration(rng.Intn(20000))*sim.Nanosecond, inject)
	}
	inject()
	k.Run(until)
	viol, granted := mgr.Violations()
	if viol > 0 && granted == 0 {
		t.Logf("violations=%d granted=%d (grants possible but not required)", viol, granted)
	}
	if granted > viol {
		t.Fatalf("granted %d > violations %d", granted, viol)
	}
}

func TestStaticDaisyChainModes(t *testing.T) {
	// §VII-A formula on a 4-deep chain: link at depth d gets
	// (1 − (d−1)/4) of max bandwidth, raised to the nearest option:
	// d1→16 lanes, d2 (0.75)→16, d3 (0.5)→8, d4 (0.25)→4.
	_, net, _ := testNet(t, topology.DaisyChain, 4, link.MechVWL, false, PolicyStatic, 0)
	want := []int{0, 0, 1, 2}
	for i, w := range want {
		m := net.Modules[i]
		if m.UpReq.BWTarget() != w || m.UpResp.BWTarget() != w {
			t.Fatalf("depth %d: modes %d/%d, want %d", i+1,
				m.UpReq.BWTarget(), m.UpResp.BWTarget(), w)
		}
	}
}

func TestStaticTernaryTreeModes(t *testing.T) {
	// 13-module ternary tree: depth 1 carries everything (16 lanes);
	// depth 2 links carry 12/13 ÷ 3 ≈ 0.31 → 8 lanes; depth 3 links
	// carry 9/13 ÷ 9 ≈ 0.077 → 4 lanes (raised from 1/16 = 0.0625 < want).
	_, net, _ := testNet(t, topology.TernaryTree, 13, link.MechVWL, false, PolicyStatic, 0)
	byDepth := map[int]int{}
	for i, m := range net.Modules {
		byDepth[net.Topo.Depth(i)] = m.UpReq.BWTarget()
	}
	if byDepth[1] != 0 || byDepth[2] != 1 || byDepth[3] != 2 {
		t.Fatalf("static tree modes by depth = %v", byDepth)
	}
}

func TestStaticNoopForROOOnly(t *testing.T) {
	_, net, _ := testNet(t, topology.DaisyChain, 3, link.MechNone, true, PolicyStatic, 0)
	for _, l := range net.Links {
		if l.BWTarget() != 0 {
			t.Fatal("static selection touched a bandwidth-less link")
		}
	}
}

func TestPolicyNoneKeepsFullPower(t *testing.T) {
	k, net, mgr := testNet(t, topology.Star, 4, link.MechVWL, true, PolicyNone, 0)
	k.Run(3 * epoch)
	if mgr.Epochs() != 0 {
		t.Fatal("FP manager ran epochs")
	}
	for _, l := range net.Links {
		if l.BWTarget() != 0 {
			t.Fatal("FP link left full bandwidth")
		}
	}
}

func TestManagerLinkHourHistogram(t *testing.T) {
	k, net, mgr := testNet(t, topology.DaisyChain, 2, link.MechVWL, false, PolicyUnaware, 0.05)
	driveClosedLoop(k, net, 8, func(i int) uint64 { return uint64(i%97) * 64 }, 3*epoch)
	if mgr.Hist.Total <= 0 {
		t.Fatal("no link hours collected")
	}
}

func TestDefaultConfig(t *testing.T) {
	c := DefaultConfig(PolicyAware, 0.05)
	if c.Epoch != 100*sim.Microsecond || c.ISPIterations != 3 ||
		c.GrantFraction != 1.0/16 || c.MaxGrants != 4 || c.SRCFraction != 0.25 ||
		c.RequestShare != 0.75 {
		t.Fatalf("defaults = %+v", c)
	}
}

func TestPolicyKindStrings(t *testing.T) {
	for p, want := range map[PolicyKind]string{
		PolicyNone: "full-power", PolicyUnaware: "network-unaware",
		PolicyAware: "network-aware", PolicyStatic: "static",
	} {
		if p.String() != want {
			t.Errorf("%d.String() = %q", int(p), p.String())
		}
	}
}

type recordingPolicy struct{ calls int }

func (p *recordingPolicy) Name() string { return "recording" }
func (p *recordingPolicy) Reconfigure(m *Manager, e *EpochData) []sim.Duration {
	p.calls++
	if len(e.Counters) != len(m.Net.Links) || len(e.FLO) != len(e.Counters) {
		panic("epoch data inconsistent")
	}
	out := make([]sim.Duration, len(m.Net.Links))
	for i := range out {
		out[i] = sim.Duration(1) << 50
	}
	return out
}

func TestCustomPolicyHook(t *testing.T) {
	k := sim.NewKernel()
	topo, _ := topology.Build(topology.DaisyChain, 2)
	cfg := network.DefaultConfig()
	cfg.Mechanism = link.MechVWL
	net := network.New(k, topo, cfg)
	p := &recordingPolicy{}
	mc := DefaultConfig(PolicyUnaware, 0.05)
	mc.Custom = p
	mgr := Attach(k, net, mc)
	k.Run(4 * epoch)
	if p.calls != 4 {
		t.Fatalf("custom policy called %d times, want 4", p.calls)
	}
	if mgr.Policy().Name() != "recording" {
		t.Fatal("custom policy not installed")
	}
}

func TestStaticStarModes(t *testing.T) {
	// Star n=7: hub at depth 1 carries all traffic (full width); ring 1
	// links carry 6/7 over 3 links = 0.286 -> 8 lanes; ring 2 carry 3/7
	// over 3 = 0.143 -> 4 lanes.
	_, net, _ := testNet(t, topology.Star, 7, link.MechVWL, false, PolicyStatic, 0)
	want := map[int]int{1: 0, 2: 1, 3: 2}
	for i, m := range net.Modules {
		d := net.Topo.Depth(i)
		if m.UpReq.BWTarget() != want[d] {
			t.Fatalf("depth %d: mode %d, want %d", d, m.UpReq.BWTarget(), want[d])
		}
	}
}

func TestStaticInterleaveMapping(t *testing.T) {
	// §VII-A pairs static selection with page-interleaved mapping; check
	// the mapping spreads consecutive 4 KiB pages across modules.
	k := sim.NewKernel()
	topo, _ := topology.Build(topology.DaisyChain, 4)
	cfg := network.DefaultConfig()
	cfg.Mechanism = link.MechVWL
	cfg.Interleave = true
	net := network.New(k, topo, cfg)
	Attach(k, net, DefaultConfig(PolicyStatic, 0))
	seen := map[int]bool{}
	for p := uint64(0); p < 8; p++ {
		seen[net.ModuleFor(p*4096)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("interleaving touched %d modules, want 4", len(seen))
	}
}
