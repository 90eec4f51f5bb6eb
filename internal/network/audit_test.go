package network_test

import (
	"testing"

	"memnet/internal/audit"
	"memnet/internal/core"
	"memnet/internal/link"
	"memnet/internal/network"
	"memnet/internal/sim"
	"memnet/internal/topology"
)

// driveAudited builds an audited managed network on kind, drives random
// traffic, drains it, and returns the auditor and network for the
// caller's assertions.
func driveAudited(t *testing.T, kind topology.Kind, seed uint64) (*audit.Auditor, *network.Network) {
	t.Helper()
	rng := sim.NewRNG(seed)
	n := 2 + rng.Intn(10)
	k := sim.NewKernel()
	topo, err := topology.Build(kind, n)
	if err != nil {
		t.Fatal(err)
	}
	cfg := network.DefaultConfig()
	cfg.Mechanism = link.MechVWL
	cfg.ROO = true
	net := network.New(k, topo, cfg)
	core.Attach(k, net, core.DefaultConfig(core.PolicyAware, 0.05))
	a := audit.New(audit.Config{SampleEvery: 1, SweepEvery: 1024}, k.Now)
	net.AttachAudit(a)

	horizon := 150 * sim.Microsecond
	var inject func()
	inject = func() {
		if k.Now() >= horizon {
			return
		}
		addr := uint64(rng.Intn(n))*cfg.ChunkBytes + uint64(rng.Intn(1<<20))*64
		if rng.Float64() < 0.7 {
			net.InjectRead(addr, -1)
		} else {
			net.InjectWrite(addr, -1)
		}
		k.After(sim.Duration(rng.Intn(3000))*sim.Nanosecond, inject)
	}
	for i := 0; i < 4; i++ {
		inject()
	}
	k.Run(horizon)
	k.Run(horizon + 100*sim.Microsecond) // drain with no new injections
	a.RunSweeps()
	return a, net
}

// TestAuditCleanOnAllTopologies runs the full-rate auditor over random
// managed traffic on every topology and requires zero violations plus a
// fully quiesced network after the drain.
func TestAuditCleanOnAllTopologies(t *testing.T) {
	for i, kind := range topology.Kinds {
		a, net := driveAudited(t, kind, uint64(2000+i))
		if a.Count() != 0 {
			t.Errorf("%v: %d violations: %v", kind, a.Count(), a.Violations())
		}
		if a.Observations() == 0 {
			t.Errorf("%v: auditor observed nothing — hooks not wired", kind)
		}
		if err := net.CheckQuiesced(); err != nil {
			t.Errorf("%v: %v", kind, err)
		}
	}
}

// TestCheckQuiescedDetectsInFlight pins the quiesce check itself: a
// request injected but not yet completed is in flight.
func TestCheckQuiescedDetectsInFlight(t *testing.T) {
	k := sim.NewKernel()
	topo, _ := topology.Build(topology.Star, 2)
	net := network.New(k, topo, network.DefaultConfig())
	net.InjectRead(64, -1)
	if err := net.CheckQuiesced(); err == nil {
		t.Fatal("in-flight request not detected")
	}
	k.RunAll()
	if err := net.CheckQuiesced(); err != nil {
		t.Fatalf("drained network reported: %v", err)
	}
}
