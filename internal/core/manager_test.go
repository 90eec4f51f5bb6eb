package core

import (
	"testing"

	"memnet/internal/link"
	"memnet/internal/network"
	"memnet/internal/sim"
	"memnet/internal/topology"
)

// attachWith builds a 2-module daisy chain with a customized manager
// config.
func attachWith(t *testing.T, mutate func(*Config)) (*sim.Kernel, *network.Network, *Manager) {
	t.Helper()
	k := sim.NewKernel()
	topo, err := topology.Build(topology.DaisyChain, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := network.DefaultConfig()
	cfg.Mechanism = link.MechVWL
	cfg.ROO = true
	net := network.New(k, topo, cfg)
	mcfg := DefaultConfig(PolicyAware, 0.05)
	if mutate != nil {
		mutate(&mcfg)
	}
	return k, net, Attach(k, net, mcfg)
}

func TestChargeControlAddsEnergy(t *testing.T) {
	run := func(charge bool) float64 {
		k, net, _ := attachWith(t, func(c *Config) { c.ChargeControl = charge })
		driveClosedLoop(k, net, 8, func(i int) uint64 {
			return uint64(i%2)*uint64(net.Cfg.ChunkBytes) + uint64(i%97)*64
		}, 4*epoch)
		var total float64
		for _, l := range net.Links {
			l.FinishAccounting()
			idle, active := l.EnergyJoules()
			total += idle + active
		}
		return total
	}
	with := run(true)
	without := run(false)
	if with <= without {
		t.Fatalf("ISP control energy not charged: with=%v without=%v", with, without)
	}
	// The overhead must stay tiny (the paper treats it as negligible).
	if (with-without)/without > 0.01 {
		t.Fatalf("control energy suspiciously large: %.3f%%", 100*(with-without)/without)
	}
}

func TestGrantCapPerLink(t *testing.T) {
	k, net, mgr := attachWith(t, nil)
	_ = net
	// Give the manager a pool and exhaust grants for link 0.
	mgr.SetPool(1600 * sim.Nanosecond)
	l := net.Links[0]
	granted := 0
	for i := 0; i < 10; i++ {
		if mgr.tryGrant(0, l) {
			granted++
		}
	}
	if granted != mgr.Cfg.MaxGrants {
		t.Fatalf("granted %d, want cap %d", granted, mgr.Cfg.MaxGrants)
	}
	_ = k
}

func TestGrantPoolExhaustion(t *testing.T) {
	_, net, mgr := attachWith(t, nil)
	// Pool smaller than one grant unit after a few grants.
	mgr.SetPool(32 * sim.Nanosecond) // unit = 2 ns
	grants := 0
	for li := range net.Links {
		for mgr.tryGrant(li, net.Links[li]) {
			grants++
		}
	}
	if grants == 0 {
		t.Fatal("no grants from a non-empty pool")
	}
	if mgr.Pool() < 0 {
		t.Fatalf("pool went negative: %v", mgr.Pool())
	}
	if mgr.tryGrant(0, net.Links[0]) {
		t.Fatal("grant from exhausted state")
	}
}

func TestEpochDataIntegrity(t *testing.T) {
	var got *EpochData
	probe := &probePolicy{capture: func(e *EpochData) { got = e }}
	k := sim.NewKernel()
	topo, _ := topology.Build(topology.Star, 4)
	ncfg := network.DefaultConfig()
	ncfg.Mechanism = link.MechVWL
	net := network.New(k, topo, ncfg)
	mcfg := DefaultConfig(PolicyUnaware, 0.05)
	mcfg.Custom = probe
	Attach(k, net, mcfg)
	driveClosedLoop(k, net, 8, func(i int) uint64 {
		return uint64(i%4)*uint64(ncfg.ChunkBytes) + uint64(i%97)*64
	}, 2*epoch)
	if got == nil {
		t.Fatal("policy never called")
	}
	if len(got.Counters) != 8 || len(got.FLO) != 8 || len(got.ModuleFEL) != 4 {
		t.Fatalf("epoch data shapes: %d/%d/%d", len(got.Counters), len(got.FLO), len(got.ModuleFEL))
	}
	var reads uint64
	for _, r := range got.DRAMReads {
		reads += r
	}
	if reads == 0 {
		t.Fatal("no DRAM reads recorded")
	}
	for m := 0; m < 4; m++ {
		if got.ModuleAEL[m] < 0 || got.ModuleFEL[m] < 0 {
			t.Fatalf("negative epoch latencies at module %d", m)
		}
	}
	if got.EpochLen != epoch {
		t.Fatalf("epoch len %v", got.EpochLen)
	}
}

type probePolicy struct {
	capture func(*EpochData)
}

func (p *probePolicy) Name() string { return "probe" }
func (p *probePolicy) Reconfigure(m *Manager, e *EpochData) []sim.Duration {
	p.capture(e)
	out := make([]sim.Duration, len(m.Net.Links))
	for i := range out {
		out[i] = sim.Duration(1) << 50
	}
	return out
}

func TestDisableQDQFIsMoreConservative(t *testing.T) {
	// Without the §VI-C discount the head sees more accumulated overhead,
	// so the pool can only be smaller or equal.
	run := func(disable bool) sim.Duration {
		k, net, mgr := attachWith(t, func(c *Config) { c.DisableQDQF = disable })
		driveClosedLoop(k, net, 24, func(i int) uint64 {
			return uint64(net.Cfg.ChunkBytes) + uint64(i%997)*64 // all to module 1
		}, 4*epoch)
		_ = net
		return mgr.CumOverNet
	}
	with := run(false)
	without := run(true)
	if with > without {
		t.Fatalf("QD/QF discount increased accumulated overhead: %v > %v", with, without)
	}
}

// TestMonitorsOnlyUnderEpochPolicies checks that Attach builds the links'
// delay monitors exactly for the policies that read them: none for full
// power and static selection, every link's for unaware, aware and custom.
func TestMonitorsOnlyUnderEpochPolicies(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		want   bool
	}{
		{"full-power", func(c *Config) { c.Policy = PolicyNone }, false},
		{"static", func(c *Config) { c.Policy = PolicyStatic }, false},
		{"unaware", func(c *Config) { c.Policy = PolicyUnaware }, true},
		{"aware", nil, true},
		{"custom", func(c *Config) { c.Policy, c.Custom = PolicyNone, &probePolicy{capture: func(*EpochData) {}} }, true},
	} {
		_, net, _ := attachWith(t, tc.mutate)
		for _, l := range net.Links {
			if got := l.Mon() != nil; got != tc.want {
				t.Errorf("%s: %v has monitors %v, want %v", tc.name, l, got, tc.want)
			}
		}
	}
}
