package network

import (
	"math"
	"testing"

	"memnet/internal/audit"
	"memnet/internal/link"
	"memnet/internal/packet"
	"memnet/internal/sim"
	"memnet/internal/topology"
)

func buildNet(t *testing.T, kind topology.Kind, n int, mutate func(*Config)) (*sim.Kernel, *Network) {
	t.Helper()
	k := sim.NewKernel()
	topo, err := topology.Build(kind, n)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	return k, New(k, topo, cfg)
}

// unloadedReadLatency is the analytic end-to-end latency of a read to a
// module at the given hop depth on an idle full-power network.
func unloadedReadLatency(depth int, dramLat sim.Duration) sim.Duration {
	perHopReq := link.FlitTimeFull + link.SERDESBase + link.RouterLatency()
	perHopResp := 5*link.FlitTimeFull + link.SERDESBase + link.RouterLatency()
	// The response pays one extra router (origin module) and one
	// processor-side delivery router in this model.
	return sim.Duration(depth)*(perHopReq+perHopResp) + dramLat
}

func TestUnloadedReadLatencyDepth1(t *testing.T) {
	k, net := buildNet(t, topology.DaisyChain, 1, nil)
	var done sim.Time = -1
	net.OnReadComplete = func(p *packet.Packet) { done = k.Now() }
	net.InjectRead(0, 0)
	k.RunAll()
	want := unloadedReadLatency(1, net.Cfg.DRAM.NominalReadLatency())
	if done != want {
		t.Fatalf("read completed at %v, want %v", done, want)
	}
}

func TestUnloadedReadLatencyScalesWithDepth(t *testing.T) {
	k, net := buildNet(t, topology.DaisyChain, 4, nil)
	var times []sim.Time
	net.OnReadComplete = func(p *packet.Packet) { times = append(times, k.Now()-p.Issued) }
	for d := 0; d < 4; d++ {
		net.InjectRead(uint64(d)*net.Cfg.ChunkBytes, 0)
		k.RunAll()
	}
	dram := net.Cfg.DRAM.NominalReadLatency()
	for d := 0; d < 4; d++ {
		want := unloadedReadLatency(d+1, dram)
		if times[d] != want {
			t.Fatalf("depth %d latency = %v, want %v", d+1, times[d], want)
		}
	}
}

func TestRoutingReachesEveryModule(t *testing.T) {
	for _, kind := range topology.Kinds {
		k, net := buildNet(t, kind, 9, nil)
		got := map[int]bool{}
		for m := 0; m < 9; m++ {
			m := m
			mod := net.Modules[m]
			stats0 := mod.DRAM.Stats().Reads
			net.InjectRead(uint64(m)*net.Cfg.ChunkBytes+12345*64, 0)
			k.RunAll()
			if net.Modules[m].DRAM.Stats().Reads != stats0+1 {
				t.Fatalf("%v: read for module %d did not reach its DRAM", kind, m)
			}
			got[m] = true
		}
		if net.readsDone != 9 {
			t.Fatalf("%v: %d reads completed", kind, net.readsDone)
		}
	}
}

func TestHopsCountsRoundTrip(t *testing.T) {
	k, net := buildNet(t, topology.DaisyChain, 3, nil)
	var hops int
	net.OnReadComplete = func(p *packet.Packet) { hops = p.Hops }
	net.InjectRead(2*net.Cfg.ChunkBytes, 0) // deepest module, depth 3
	k.RunAll()
	if hops != 6 {
		t.Fatalf("hops = %d, want 6 (3 down + 3 up)", hops)
	}
	snapA := Snapshot{}
	snapB := net.TakeSnapshot()
	if got := LinksPerAccess(snapA, snapB); got != 6 {
		t.Fatalf("links/access = %v, want 6", got)
	}
}

func TestWriteCompletion(t *testing.T) {
	k, net := buildNet(t, topology.Star, 4, nil)
	var completed *packet.Packet
	net.OnWriteComplete = func(p *packet.Packet) { completed = p }
	net.InjectWrite(3*net.Cfg.ChunkBytes, 7)
	k.RunAll()
	if completed == nil || completed.Core != 7 {
		t.Fatal("write completion not delivered")
	}
	if net.writesDone != 1 {
		t.Fatalf("writesDone = %d", net.writesDone)
	}
}

func TestAddressMapping(t *testing.T) {
	_, net := buildNet(t, topology.DaisyChain, 4, nil)
	if net.ModuleFor(0) != 0 || net.ModuleFor(net.Cfg.ChunkBytes) != 1 ||
		net.ModuleFor(3*net.Cfg.ChunkBytes+5) != 3 {
		t.Fatal("contiguous mapping broken")
	}
	// Out-of-range clamps to the last module.
	if net.ModuleFor(100*net.Cfg.ChunkBytes) != 3 {
		t.Fatal("clamp broken")
	}
	if net.CapacityBytes() != 4*net.Cfg.ChunkBytes {
		t.Fatal("capacity wrong")
	}
}

func TestInterleavedMapping(t *testing.T) {
	_, net := buildNet(t, topology.DaisyChain, 4, func(c *Config) {
		c.Interleave = true
	})
	if net.ModuleFor(0) != 0 || net.ModuleFor(4096) != 1 ||
		net.ModuleFor(2*4096) != 2 || net.ModuleFor(4*4096) != 0 {
		t.Fatal("page interleaving broken")
	}
}

func TestEnergyBreakdownComponents(t *testing.T) {
	k, net := buildNet(t, topology.DaisyChain, 2, nil)
	for i := 0; i < 100; i++ {
		net.InjectRead(uint64(i%2)*net.Cfg.ChunkBytes, 0)
		k.RunAll()
	}
	k.Run(k.Now() + 100*sim.Microsecond)
	snap := net.TakeSnapshot()
	e := snap.Energy
	if e.IdleIO <= 0 || e.ActiveIO <= 0 || e.LogicLeak <= 0 || e.LogicDyn <= 0 ||
		e.DRAMLeak <= 0 || e.DRAMDyn <= 0 {
		t.Fatalf("missing energy components: %+v", e)
	}
	// I/O energy must equal the sum over links.
	var linkE float64
	for _, l := range net.Links {
		idle, active := l.EnergyJoules()
		linkE += idle + active
	}
	if math.Abs(linkE-e.IO())/linkE > 1e-9 {
		t.Fatalf("I/O energy mismatch: links %v vs breakdown %v", linkE, e.IO())
	}
	// Leakage matches watts × time.
	elapsed := snap.At.Seconds()
	wantLeak := 2 * net.Modules[0].Params.DRAMLeakageWatts() * elapsed
	if math.Abs(e.DRAMLeak-wantLeak)/wantLeak > 1e-9 {
		t.Fatalf("DRAM leak = %v, want %v", e.DRAMLeak, wantLeak)
	}
}

func TestFullPowerIdleNetworkPower(t *testing.T) {
	// A completely idle full-power network must draw exactly leakage +
	// idle I/O: per low-radix module 2 × 0.586 W links + DRAM and logic
	// leakage.
	k, net := buildNet(t, topology.DaisyChain, 3, nil)
	k.Run(1 * sim.Millisecond)
	a := Snapshot{}
	b := net.TakeSnapshot()
	p := IntervalPower(a, b)
	params := net.Modules[0].Params
	wantPerHMC := 2*params.LinkFullWatts() + params.DRAMLeakageWatts() + params.LogicLeakageWatts()
	got := p.Total() / 3
	if math.Abs(got-wantPerHMC) > 1e-6 {
		t.Fatalf("idle power per HMC = %v, want %v", got, wantPerHMC)
	}
	if p.ActiveIO != 0 || p.DRAMDyn != 0 || p.LogicDyn != 0 {
		t.Fatalf("idle network has dynamic power: %+v", p)
	}
}

func TestSnapshotIntervalMetrics(t *testing.T) {
	k, net := buildNet(t, topology.DaisyChain, 2, nil)
	warm := net.TakeSnapshot()
	n := 200
	done := 0
	var issue func()
	issue = func() {
		if done >= n {
			return
		}
		net.InjectRead(uint64(done%2)*net.Cfg.ChunkBytes, 0)
	}
	net.OnReadComplete = func(*packet.Packet) { done++; issue() }
	issue()
	k.RunAll()
	end := net.TakeSnapshot()
	if got := Throughput(warm, end); got <= 0 {
		t.Fatal("zero throughput")
	}
	if got := AvgReadLatency(warm, end); got < 30*sim.Nanosecond {
		t.Fatalf("avg latency = %v", got)
	}
	if got := ChannelUtilization(warm, end); got <= 0 || got > 1 {
		t.Fatalf("channel util = %v", got)
	}
	if got := AvgLinkUtilization(warm, end); got <= 0 || got > 1 {
		t.Fatalf("link util = %v", got)
	}
}

func TestVaultOverflowRetries(t *testing.T) {
	// Flood one vault of one module far past its 16-entry queue: all
	// reads must eventually complete via the pending-retry path.
	k, net := buildNet(t, topology.DaisyChain, 1, nil)
	const n = 100
	for i := 0; i < n; i++ {
		net.InjectRead(0, 0) // same line, same vault
	}
	k.RunAll()
	if net.readsDone != n {
		t.Fatalf("completed %d of %d reads", net.readsDone, n)
	}
}

func TestResponseLinkWakesAtDRAMReadStart(t *testing.T) {
	k, net := buildNet(t, topology.DaisyChain, 1, func(c *Config) { c.ROO = true })
	l := net.Modules[0].UpResp
	l.SetROOMode(0)
	// Let the response link turn off, then issue a read: the wake must
	// begin when the DRAM read starts, not when the response arrives.
	net.InjectRead(0, 0)
	k.RunAll()
	if l.State() != link.StateOff {
		t.Fatalf("response link state = %v, want off", l.State())
	}
	var wakeAt sim.Time = -1
	l.OnWakeStart = func() { wakeAt = k.Now() }
	start := k.Now()
	net.InjectRead(64, 0)
	k.RunAll()
	// The request link (also ROO, 2048 ns mode) is off by now too, so the
	// request first pays its wakeup before serializing.
	reqArrive := start + net.Cfg.Wakeup + link.FlitTimeFull + link.SERDESBase + link.RouterLatency()
	if wakeAt != reqArrive {
		t.Fatalf("wake began at %v, want %v (DRAM read start)", wakeAt, reqArrive)
	}
}

func TestIntervalHelpersZeroWidth(t *testing.T) {
	k, net := buildNet(t, topology.DaisyChain, 1, nil)
	_ = k
	s := net.TakeSnapshot()
	if network := IntervalPower(s, s); network.Total() != 0 {
		t.Fatal("zero-width interval power")
	}
	if Throughput(s, s) != 0 || ChannelUtilization(s, s) != 0 ||
		AvgLinkUtilization(s, s) != 0 || LinksPerAccess(s, s) != 0 ||
		AvgReadLatency(s, s) != 0 {
		t.Fatal("zero-width interval metrics not zero")
	}
}

func TestLatencyHistResetAtWarmup(t *testing.T) {
	k, net := buildNet(t, topology.DaisyChain, 1, nil)
	net.InjectRead(0, 0)
	k.RunAll()
	if net.LatencyHist().Count() != 1 {
		t.Fatal("histogram missed a read")
	}
	net.LatencyHist().Reset()
	net.InjectRead(64, 0)
	k.RunAll()
	if net.LatencyHist().Count() != 1 {
		t.Fatal("reset did not isolate the interval")
	}
}

// TestAuditReadLatencyFloor pins the audit's read floor at the DRAM's
// nominal read latency (tRCD + tCL + burst): every read pays it in its
// vault, so a read 1 ns faster is a violation, and one at the floor is
// not.
func TestAuditReadLatencyFloor(t *testing.T) {
	k, net := buildNet(t, topology.DaisyChain, 1, nil)
	a := audit.New(audit.Config{SampleEvery: 1}, k.Now)
	net.AttachAudit(a)
	floor := net.Cfg.DRAM.NominalReadLatency()
	p := &packet.Packet{ID: 1, Src: 0, Hops: 2}
	net.auditRead(p, floor)
	if a.Count() != 0 {
		t.Fatalf("a read at the %s floor was flagged: %v", floor, a.Violations())
	}
	net.auditRead(p, floor-sim.Nanosecond)
	if v := a.Violations(); len(v) != 1 || v[0].Rule != "read-latency-floor" {
		t.Fatalf("a read 1 ns under the %s floor gave %v, want one read-latency-floor violation", floor, v)
	}
}
