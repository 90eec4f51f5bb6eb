// Package memnet_test carries the root benchmarks: the ablation benches
// for the design choices DESIGN.md §6 calls out, which report each
// choice's effect on one managed cell through b.ReportMetric, and the
// kernel and link microbenchmarks. Paper tables and figures are
// produced only by cmd/experiments, whose outputs are committed under
// results/ and checked by make results.
package memnet_test

import (
	"testing"

	"memnet/internal/core"
	"memnet/internal/link"
	"memnet/internal/network"
	"memnet/internal/packet"
	"memnet/internal/sim"
	"memnet/internal/topology"
	"memnet/internal/workload"
)

func wl(b *testing.B, name string) *workload.Profile {
	b.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// --- Ablations (DESIGN.md §6) ---

// ablationRun measures the aware-managed mg.D star cell the ablations
// perturb, with mutate applied to its manager config.
func ablationRun(b *testing.B, mutate func(*core.Config)) (powerW, deg float64) {
	p := wl(b, "mg.D")
	kernel := sim.NewKernel()
	topo, err := topology.Build(topology.Star, p.Modules(1))
	if err != nil {
		b.Fatal(err)
	}
	netCfg := network.DefaultConfig()
	netCfg.Mechanism = link.MechVWL
	netCfg.ROO = true
	netCfg.ChunkBytes = 1 << 30
	net := network.New(kernel, topo, netCfg)
	mcfg := core.DefaultConfig(core.PolicyAware, 0.05)
	if mutate != nil {
		mutate(&mcfg)
	}
	core.Attach(kernel, net, mcfg)
	fe, err := workload.NewFrontEnd(kernel, net, p, workload.DefaultFrontEndConfig(42))
	if err != nil {
		b.Fatal(err)
	}
	fe.Start()
	kernel.Run(50 * sim.Microsecond)
	warm := net.TakeSnapshot()
	kernel.Run(250 * sim.Microsecond)
	end := net.TakeSnapshot()
	return network.IntervalPower(warm, end).Total(), network.Throughput(warm, end)
}

// BenchmarkAblationISPIterations compares 1 vs 3 ISP iterations.
func BenchmarkAblationISPIterations(b *testing.B) {
	var p1, p3 float64
	for i := 0; i < b.N; i++ {
		p1, _ = ablationRun(b, func(c *core.Config) { c.ISPIterations = 1 })
		p3, _ = ablationRun(b, func(c *core.Config) { c.ISPIterations = 3 })
	}
	b.ReportMetric(100*(1-p3/p1), "iter3-vs-iter1%")
}

// BenchmarkAblationGrantPool disables the leftover-AMS grant pool.
func BenchmarkAblationGrantPool(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		with, _ = ablationRun(b, nil)
		without, _ = ablationRun(b, func(c *core.Config) { c.GrantFraction = 0 })
	}
	b.ReportMetric(100*(1-with/without), "pool-saving%")
}

// BenchmarkAblationRequestShare compares the 3/4 request-link pool share
// against an even split.
func BenchmarkAblationRequestShare(b *testing.B) {
	var skew, even float64
	for i := 0; i < b.N; i++ {
		skew, _ = ablationRun(b, nil)
		even, _ = ablationRun(b, func(c *core.Config) { c.RequestShare = 0.5 })
	}
	b.ReportMetric(100*(1-skew/even), "share75-vs-50%")
}

// BenchmarkAblationWakeCascade measures the §VI-B cascade's latency value
// (read latency with vs without it, ROO links, sparse deep traffic).
func BenchmarkAblationWakeCascade(b *testing.B) {
	run := func(disable bool) sim.Duration {
		k := sim.NewKernel()
		topo, err := topology.Build(topology.DaisyChain, 6)
		if err != nil {
			b.Fatal(err)
		}
		ncfg := network.DefaultConfig()
		ncfg.ROO = true
		net := network.New(k, topo, ncfg)
		mcfg := core.DefaultConfig(core.PolicyAware, 2.0)
		mcfg.DisableWakeCascade = disable
		core.Attach(k, net, mcfg)
		for i := 0; i < 300; i++ {
			k.Run(k.Now() + 3*sim.Microsecond)
			net.InjectRead(5*uint64(ncfg.ChunkBytes)+uint64(i)*64, -1)
		}
		k.Run(k.Now() + 10*sim.Microsecond)
		a := network.Snapshot{}
		bsnap := net.TakeSnapshot()
		return network.AvgReadLatency(a, bsnap)
	}
	var with, without sim.Duration
	for i := 0; i < b.N; i++ {
		with = run(false)
		without = run(true)
	}
	b.ReportMetric(with.Nanoseconds(), "lat-ns-cascade")
	b.ReportMetric(without.Nanoseconds(), "lat-ns-nocascade")
}

// BenchmarkAblationQDQF measures the §VI-C congestion discount's power
// contribution under the aware policy.
func BenchmarkAblationQDQF(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		with, _ = ablationRun(b, nil)
		without, _ = ablationRun(b, func(c *core.Config) { c.DisableQDQF = true })
	}
	b.ReportMetric(100*(1-with/without), "qdqf-saving%")
}

// BenchmarkKernel measures raw event throughput of the simulation kernel.
// Steady-state schedule+step must report 0 allocs/op: the timing wheel
// reuses slot storage in place and nothing boxes an interface.
func BenchmarkKernel(b *testing.B) {
	k := sim.NewKernel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Schedule(k.Now()+1, func() {})
		k.Step()
	}
}

// BenchmarkKernelScheduleStep measures the same cycle against a deep
// pending queue — the realistic shape during a sweep, where thousands of
// link/DRAM/management events are in flight. Also 0 allocs/op.
func BenchmarkKernelScheduleStep(b *testing.B) {
	k := sim.NewKernel()
	for i := 0; i < 4096; i++ {
		k.Schedule(sim.Time(i), func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Schedule(k.Now()+100, func() {})
		k.Step()
	}
}

// BenchmarkLinkTransmit measures the per-packet cost of the link model.
func BenchmarkLinkTransmit(b *testing.B) {
	k := sim.NewKernel()
	cfg := link.Config{Mechanism: link.MechVWL, ROO: true, FullWatts: 0.586}
	l := link.New(k, cfg, 0, link.DirResponse, 0, 0, packet.ProcessorID, 1)
	l.Deliver = func(*packet.Packet) {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Enqueue(&packet.Packet{Kind: packet.ReadResp})
		k.RunAll()
	}
}
