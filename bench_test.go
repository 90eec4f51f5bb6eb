// Package memnet_test carries the benchmark harness: one testing.B
// benchmark per table/figure of the paper's evaluation, plus ablation
// benches for the design choices DESIGN.md calls out. Each benchmark runs
// a reduced-but-representative slice of the corresponding sweep and
// reports domain metrics (W/HMC, power saving, perf degradation) through
// b.ReportMetric, so `go test -bench=. -benchmem` regenerates the shape of
// every result.
//
// The full-resolution sweeps (all 14 workloads × 4 topologies × both
// sizes) live behind cmd/experiments; benchmarks use a fixed workload
// subset so a complete -bench=. pass stays laptop-sized.
package memnet_test

import (
	"testing"

	"memnet/internal/core"
	"memnet/internal/dram"
	"memnet/internal/exp"
	"memnet/internal/link"
	"memnet/internal/network"
	"memnet/internal/packet"
	"memnet/internal/sim"
	"memnet/internal/stats"
	"memnet/internal/topology"
	"memnet/internal/workload"
)

// benchWorkloads is the representative subset used by the benchmarks:
// the lowest-utilization workload, the highest, one HPC middle case and
// one cloud middle case.
var benchWorkloads = []string{"sp.D", "mixB", "mg.D", "mixC"}

func benchRunner() *exp.Runner {
	r := exp.NewRunner()
	r.SimTime = 200 * sim.Microsecond
	r.Warmup = 50 * sim.Microsecond
	// A hung benchmark should fail fast with a diagnostic dump, not spin
	// until the test binary's external timeout kills it.
	r.Watchdog = true
	return r
}

func wl(b *testing.B, name string) *workload.Profile {
	b.Helper()
	p, err := workload.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// benchSpec is the common single-cell configuration.
func benchSpec(b *testing.B, wlName string, topo topology.Kind, size exp.NetworkSize,
	mech exp.Mech, pol core.PolicyKind, alpha float64) exp.Spec {
	return exp.Spec{
		Workload: wl(b, wlName), Topology: topo, Size: size,
		Mech: mech, Policy: pol, Alpha: alpha,
	}
}

// BenchmarkTableI exercises the DRAM timing model (Table I): sustained
// single-module read throughput.
func BenchmarkTableI(b *testing.B) {
	r := benchRunner()
	spec := benchSpec(b, "mixG", topology.DaisyChain, exp.Small, exp.MechFP, core.PolicyNone, 0)
	var res exp.Result
	for i := 0; i < b.N; i++ {
		res = r.Run(spec)
		r = benchRunner() // defeat the cache so b.N iterations measure work
	}
	b.ReportMetric(res.AvgReadLatency.Nanoseconds(), "read-ns")
}

// BenchmarkTableII exercises the substituted processor front end: issue
// calibration across all 14 workloads.
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		for _, p := range workload.Profiles {
			r.Run(exp.Spec{Workload: p, Topology: topology.Star, Size: exp.Small,
				SimTime: 50 * sim.Microsecond, Warmup: 10 * sim.Microsecond})
		}
	}
}

// BenchmarkFig4 samples every workload's access CDF.
func BenchmarkFig4(b *testing.B) {
	rng := sim.NewRNG(1)
	samplers := make([]*workload.Sampler, len(workload.Profiles))
	for i, p := range workload.Profiles {
		samplers[i] = workload.NewSampler(p, 64)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range samplers {
			_ = s.Sample(rng)
		}
	}
}

// fig5Cell measures the full-power per-HMC power of one workload/topology.
func fig5Cell(b *testing.B, size exp.NetworkSize) {
	r := benchRunner()
	var totalPower, idleFrac float64
	n := 0
	for i := 0; i < b.N; i++ {
		for _, name := range benchWorkloads {
			for _, topo := range topology.Kinds {
				res := r.Run(benchSpec(b, name, topo, size, exp.MechFP, core.PolicyNone, 0))
				totalPower += res.PerHMC.Total()
				idleFrac += res.IdleIOFraction()
				n++
			}
		}
	}
	b.ReportMetric(totalPower/float64(n), "W/HMC")
	b.ReportMetric(100*idleFrac/float64(n), "idleIO%")
}

// BenchmarkFig5Small / Big regenerate the full-power power breakdown.
func BenchmarkFig5Small(b *testing.B) { fig5Cell(b, exp.Small) }
func BenchmarkFig5Big(b *testing.B)   { fig5Cell(b, exp.Big) }

// BenchmarkFig6 regenerates links-traversed-per-access for the worst case
// (big daisy chain) and best case (big ternary tree).
func BenchmarkFig6(b *testing.B) {
	r := benchRunner()
	var chain, tree float64
	for i := 0; i < b.N; i++ {
		chain = r.Run(benchSpec(b, "is.D", topology.DaisyChain, exp.Big, exp.MechFP, core.PolicyNone, 0)).LinksPerAccess
		tree = r.Run(benchSpec(b, "is.D", topology.TernaryTree, exp.Big, exp.MechFP, core.PolicyNone, 0)).LinksPerAccess
	}
	b.ReportMetric(chain, "links/acc-chain")
	b.ReportMetric(tree, "links/acc-tree")
}

// BenchmarkFig8 regenerates the idle-I/O share spread between the
// least and most utilized workloads.
func BenchmarkFig8(b *testing.B) {
	r := benchRunner()
	var lo, hi float64
	for i := 0; i < b.N; i++ {
		hi = r.Run(benchSpec(b, "sp.D", topology.Star, exp.Big, exp.MechFP, core.PolicyNone, 0)).IdleIOFraction()
		lo = r.Run(benchSpec(b, "mixB", topology.Star, exp.Big, exp.MechFP, core.PolicyNone, 0)).IdleIOFraction()
	}
	b.ReportMetric(100*hi, "idleIO%-sp.D")
	b.ReportMetric(100*lo, "idleIO%-mixB")
}

// BenchmarkFig9 regenerates channel-vs-link utilization attenuation.
func BenchmarkFig9(b *testing.B) {
	r := benchRunner()
	var chanU, linkU float64
	for i := 0; i < b.N; i++ {
		res := r.Run(benchSpec(b, "mg.D", topology.DaisyChain, exp.Big, exp.MechFP, core.PolicyNone, 0))
		chanU, linkU = res.ChannelUtil, res.LinkUtil
	}
	b.ReportMetric(100*chanU, "chanUtil%")
	b.ReportMetric(100*linkU, "linkUtil%")
}

// unawareCell averages power saving and degradation for one mechanism
// under network-unaware management over the benchmark workloads.
func managedCell(b *testing.B, pol core.PolicyKind, mech exp.Mech, size exp.NetworkSize,
	alpha float64, wakeup sim.Duration) (saving, deg float64) {
	r := benchRunner()
	n := 0
	for _, name := range benchWorkloads {
		for _, topo := range []topology.Kind{topology.DaisyChain, topology.Star} {
			spec := benchSpec(b, name, topo, size, mech, pol, alpha)
			spec.Wakeup = wakeup
			res := r.Run(spec)
			fp := r.FPBaseline(spec)
			saving += 1 - res.Power.Total()/fp.Power.Total()
			deg += r.PerfDegradation(res)
			n++
		}
	}
	return saving / float64(n), deg / float64(n)
}

// BenchmarkFig11 regenerates network-unaware power savings (α = 5%).
func BenchmarkFig11(b *testing.B) {
	var saving float64
	for i := 0; i < b.N; i++ {
		saving, _ = managedCell(b, core.PolicyUnaware, exp.MechVWLROO, exp.Big, 0.05, 0)
	}
	b.ReportMetric(100*saving, "power-saving%")
}

// BenchmarkFig12 regenerates network-unaware performance overheads.
func BenchmarkFig12(b *testing.B) {
	var deg25, deg50 float64
	for i := 0; i < b.N; i++ {
		_, deg25 = managedCell(b, core.PolicyUnaware, exp.MechVWL, exp.Small, 0.025, 0)
		_, deg50 = managedCell(b, core.PolicyUnaware, exp.MechVWL, exp.Small, 0.05, 0)
	}
	b.ReportMetric(100*deg25, "deg%-a2.5")
	b.ReportMetric(100*deg50, "deg%-a5")
}

// BenchmarkFig13 regenerates the link-hour distribution and reports how
// much time low-utilization links spend in sub-16-lane modes.
func BenchmarkFig13(b *testing.B) {
	var lowUtilNarrow float64
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		hist := &stats.LinkHourHist{}
		for _, name := range benchWorkloads {
			spec := benchSpec(b, name, topology.Star, exp.Big, exp.MechVWL, core.PolicyAware, 0.05)
			spec.CollectLinkHours = true
			hist.Merge(r.Run(spec).Hist)
		}
		lowUtilNarrow = 0
		for mode := 1; mode < stats.NumLaneModes; mode++ {
			lowUtilNarrow += hist.Fraction(0, mode) + hist.Fraction(1, mode)
		}
	}
	b.ReportMetric(100*lowUtilNarrow, "lowUtil-narrow%")
}

// BenchmarkFig15 regenerates aware-vs-unaware power savings.
func BenchmarkFig15(b *testing.B) {
	var extra float64
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		var un, aw float64
		for _, name := range benchWorkloads {
			specU := benchSpec(b, name, topology.Star, exp.Big, exp.MechVWLROO, core.PolicyUnaware, 0.05)
			specA := specU
			specA.Policy = core.PolicyAware
			un += r.Run(specU).Power.Total()
			aw += r.Run(specA).Power.Total()
		}
		extra = 1 - aw/un
	}
	b.ReportMetric(100*extra, "aware-vs-unaware%")
}

// BenchmarkFig16 regenerates per-workload savings for the extremes.
func BenchmarkFig16(b *testing.B) {
	r := benchRunner()
	var spd, mixb float64
	for i := 0; i < b.N; i++ {
		for _, c := range []struct {
			name string
			out  *float64
		}{{"sp.D", &spd}, {"mixB", &mixb}} {
			spec := benchSpec(b, c.name, topology.Star, exp.Big, exp.MechVWLROO, core.PolicyAware, 0.05)
			res := r.Run(spec)
			fp := r.FPBaseline(spec)
			*c.out = 1 - res.Power.Total()/fp.Power.Total()
		}
	}
	b.ReportMetric(100*spd, "saving%-sp.D")
	b.ReportMetric(100*mixb, "saving%-mixB")
}

// BenchmarkFig17 regenerates the aware-management performance overheads.
func BenchmarkFig17(b *testing.B) {
	var degA, degU float64
	for i := 0; i < b.N; i++ {
		_, degA = managedCell(b, core.PolicyAware, exp.MechVWLROO, exp.Big, 0.05, 0)
		_, degU = managedCell(b, core.PolicyUnaware, exp.MechVWLROO, exp.Big, 0.05, 0)
	}
	b.ReportMetric(100*degA, "deg%-aware")
	b.ReportMetric(100*degU, "deg%-unaware")
}

// BenchmarkFig18 regenerates the DVFS / 20 ns-ROO sensitivity study.
func BenchmarkFig18(b *testing.B) {
	var dvfs, roo20 float64
	for i := 0; i < b.N; i++ {
		dvfs, _ = managedCell(b, core.PolicyAware, exp.MechDVFS, exp.Big, 0.05, 0)
		roo20, _ = managedCell(b, core.PolicyAware, exp.MechROO, exp.Big, 0.05, link.WakeupSensitivity)
	}
	b.ReportMetric(100*dvfs, "saving%-DVFS")
	b.ReportMetric(100*roo20, "saving%-ROO20")
}

// BenchmarkStaticStudy regenerates §VII-A: static fat/tapered vs aware
// management at α=30%.
func BenchmarkStaticStudy(b *testing.B) {
	var static, aware float64
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		for _, name := range benchWorkloads {
			st := exp.Spec{Workload: wl(b, name), Topology: topology.Star, Size: exp.Big,
				Mech: exp.MechVWL, Policy: core.PolicyStatic, Interleave: true}
			aw := benchSpec(b, name, topology.Star, exp.Big, exp.MechVWL, core.PolicyAware, 0.30)
			static += r.Run(st).Power.Total()
			aware += r.Run(aw).Power.Total()
		}
	}
	b.ReportMetric(100*(1-aware/static), "aware-vs-static%")
}

// --- Ablations (DESIGN.md §6) ---

// ablationSpec is the common configuration ablations perturb.
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

// BenchmarkAblationLinkSplit compares the paper's equal per-link AMS split
// against a traffic-proportional split under unaware management.
func BenchmarkAblationLinkSplit(b *testing.B) {
	run := func(proportional bool) float64 {
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
		mcfg := core.DefaultConfig(core.PolicyUnaware, 0.05)
		mcfg.ProportionalLinkSplit = proportional
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
		return network.IntervalPower(warm, end).Total()
	}
	var equal, prop float64
	for i := 0; i < b.N; i++ {
		equal = run(false)
		prop = run(true)
	}
	b.ReportMetric(100*(1-prop/equal), "prop-vs-equal%")
}

// BenchmarkAblationOpenPage compares the paper's close-page DRAM policy
// against open page on one workload (row hits are rare under the random
// line-grain traffic, matching the paper's choice of close page).
func BenchmarkAblationOpenPage(b *testing.B) {
	run := func(page dram.PagePolicy) sim.Duration {
		p := wl(b, "mixC")
		kernel := sim.NewKernel()
		topo, err := topology.Build(topology.Star, p.Modules(4))
		if err != nil {
			b.Fatal(err)
		}
		netCfg := network.DefaultConfig()
		netCfg.DRAM.Page = page
		net := network.New(kernel, topo, netCfg)
		fe, err := workload.NewFrontEnd(kernel, net, p, workload.DefaultFrontEndConfig(42))
		if err != nil {
			b.Fatal(err)
		}
		fe.Start()
		kernel.Run(50 * sim.Microsecond)
		warm := net.TakeSnapshot()
		kernel.Run(250 * sim.Microsecond)
		end := net.TakeSnapshot()
		return network.AvgReadLatency(warm, end)
	}
	var closeLat, openLat sim.Duration
	for i := 0; i < b.N; i++ {
		closeLat = run(dram.ClosePage)
		openLat = run(dram.OpenPage)
	}
	b.ReportMetric(closeLat.Nanoseconds(), "lat-ns-close")
	b.ReportMetric(openLat.Nanoseconds(), "lat-ns-open")
}

// BenchmarkAblationBER measures the link-level throughput cost of CRC
// retry under a lossy channel: back-to-back responses at BER 0 vs 1e-4.
func BenchmarkAblationBER(b *testing.B) {
	measure := func(ber float64) float64 {
		k := sim.NewKernel()
		cfg := link.Config{FullWatts: 0.586, BER: ber}
		l := link.New(k, cfg, 0, link.DirResponse, 0, 0, packet.ProcessorID, 1)
		delivered := 0
		l.Deliver = func(*packet.Packet) { delivered++ }
		for i := 0; i < 2000; i++ {
			l.Enqueue(&packet.Packet{ID: uint64(i), Kind: packet.ReadResp})
		}
		k.RunAll()
		return float64(delivered) / k.Now().Seconds()
	}
	var clean, lossy float64
	for i := 0; i < b.N; i++ {
		clean = measure(0)
		lossy = measure(1e-4)
	}
	b.ReportMetric(100*(1-lossy/clean), "throughput-loss%-ber1e-4")
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
