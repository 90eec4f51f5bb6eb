package main

import (
	"context"
	"time"

	"memnet/internal/audit"
	"memnet/internal/core"
	"memnet/internal/exp"
	"memnet/internal/network"
	"memnet/internal/sim"
	"memnet/internal/topology"
	"memnet/internal/workload"
)

// cell is one simulation built through the public constructors, the way
// exp.RunBudgeted builds it, so the traced run and the set-up timing see
// each layer's construction and run separately.
type cell struct {
	k   *sim.Kernel
	net *network.Network
	mgr *core.Manager
	aud *audit.Auditor
	fe  *workload.FrontEnd
}

// netConfig mirrors exp.RunBudgeted's network configuration for the
// spec fields the benchmark sets.
func netConfig(spec exp.Spec) network.Config {
	cfg := network.DefaultConfig()
	cfg.Mechanism = spec.Mech.BW
	cfg.ROO = spec.Mech.ROO
	cfg.Wakeup = spec.Wakeup
	cfg.ChunkBytes = uint64(spec.Size.ChunkGB()) << 30
	cfg.Interleave = spec.Interleave
	if spec.DRAM != nil {
		cfg.DRAM = *spec.DRAM
	}
	return cfg
}

// workloadSeed mirrors exp's front-end seed derivation (FNV-1a over the
// workload, topology and size names, xor the seed salt), so a traced cell
// issues the same requests as the exp.RunCtx cell of the same spec.
func workloadSeed(spec exp.Spec) uint64 {
	h := uint64(1469598103934665603)
	for _, s := range []string{spec.Workload.Name, spec.Topology.String(), spec.Size.String()} {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	return h ^ spec.SeedSalt
}

// buildCell builds spec's simulation. mark, when non-nil, is called as
// each phase ends: "topology" (with the kernel), "network" (with its
// auditor), "manager" and "frontend".
func buildCell(spec exp.Spec, mark func(phase string)) (*cell, error) {
	if mark == nil {
		mark = func(string) {}
	}
	c := &cell{k: sim.NewKernel()}
	topo, err := topology.Build(spec.Topology, spec.Workload.Modules(spec.Size.ChunkGB()))
	if err != nil {
		return nil, err
	}
	mark("topology")
	c.net = network.New(c.k, topo, netConfig(spec))
	if spec.AuditEvery > 0 {
		c.aud = audit.New(audit.Config{SampleEvery: uint64(spec.AuditEvery)}, c.k.Now)
		c.net.AttachAudit(c.aud)
		c.aud.RegisterSweep(func(_ sim.Time, report func(component, rule, detail string)) {
			if err := c.k.CheckInvariants(); err != nil {
				report("kernel", "event-queue", err.Error())
			}
		})
	}
	mark("network")
	mcfg := core.DefaultConfig(spec.Policy, spec.Alpha)
	mcfg.CollectLinkHours = spec.CollectLinkHours
	c.mgr = core.Attach(c.k, c.net, mcfg)
	mark("manager")
	c.fe, err = workload.NewFrontEnd(c.k, c.net, spec.Workload, workload.DefaultFrontEndConfig(workloadSeed(spec)))
	if err != nil {
		return nil, err
	}
	mark("frontend")
	return c, nil
}

// at records the cell's state at a span boundary.
func (c *cell) at() *boundary {
	b := &boundary{
		Processed:   c.k.Processed(),
		Pending:     c.k.Pending(),
		Outstanding: c.fe.Outstanding(),
		Epochs:      c.mgr.Epochs(),
	}
	for _, l := range c.net.Links {
		b.QueueLen += l.QueueLen()
	}
	for _, m := range c.net.Modules {
		b.QueuedRequests += m.DRAM.QueuedRequests()
	}
	return b
}

// tracedCell is what one traced cell measured. Counts marked "measured"
// cover the interval after warmup, the others the whole run.
type tracedCell struct {
	// res holds the fields exp.RunCtx reports for the same spec: the
	// digest fields, Events and LinksPerAccess.
	res          exp.Result
	events       uint64 // measured
	accesses     uint64 // measured
	transmits    uint64 // measured
	samples      uint64 // front-end issues, each one address sample
	dramAccesses uint64
	pendingMax   int
	epochs       uint64
	// Means over the measured interval's slice boundaries: packets queued
	// per link, requests queued per module's vaults, reads outstanding.
	queueMean, queuedMean, outstandingMean float64
}

// sliceLen is the simulated length of one run.slice span.
const sliceLen = 10 * sim.Microsecond

// traceCell runs spec with spans: setup.* per construction phase,
// run.warmup and run.measure with a run.slice child every sliceLen, and
// measure.snapshot at the warmup boundary and at the end.
func traceCell(ctx context.Context, tr *tracer, parent int, spec exp.Spec) (tracedCell, error) {
	var out tracedCell
	root := tr.open("cell", parent)
	defer tr.close(root)
	t := time.Now()
	c, err := buildCell(spec, func(phase string) {
		now := time.Now()
		tr.add("setup."+phase, root, t, now, nil)
		t = now
	})
	if err != nil {
		return out, err
	}
	// A check on every event records the exact high-water mark of pending
	// events; the context is polled at exp's stride.
	var checks uint64
	c.k.SetCheck(1, func() error {
		if p := c.k.Pending(); p > out.pendingMax {
			out.pendingMax = p
		}
		checks++
		if checks%sim.DefaultCheckEvery == 0 {
			return ctx.Err()
		}
		return nil
	})
	c.fe.Start()

	var kept []*boundary
	run := func(name string, until sim.Time, keep bool) error {
		id := tr.open(name, root)
		defer tr.close(id)
		for c.k.Now() < until {
			s := time.Now()
			c.k.Run(min(c.k.Now()+sliceLen, until))
			if err := c.k.Err(); err != nil {
				return err
			}
			b := c.at()
			tr.add("run.slice", id, s, time.Now(), b)
			if keep {
				kept = append(kept, b)
			}
		}
		return nil
	}
	if err := run("run.warmup", spec.Warmup, false); err != nil {
		return out, err
	}
	s := time.Now()
	snap0 := c.net.TakeSnapshot()
	c.net.LatencyHist().Reset()
	c.aud.RunSweeps()
	events0 := c.k.Processed()
	tr.add("measure.snapshot", root, s, time.Now(), c.at())
	if err := run("run.measure", spec.Warmup+spec.SimTime, true); err != nil {
		return out, err
	}

	s = time.Now()
	snap1 := c.net.TakeSnapshot()
	hist := c.net.LatencyHist()
	out.res = exp.Result{
		Power:          network.IntervalPower(snap0, snap1),
		Throughput:     network.Throughput(snap0, snap1),
		ChannelUtil:    network.ChannelUtilization(snap0, snap1),
		LinkUtil:       network.AvgLinkUtilization(snap0, snap1),
		LinksPerAccess: network.LinksPerAccess(snap0, snap1),
		AvgReadLatency: network.AvgReadLatency(snap0, snap1),
		P50:            hist.Percentile(0.50),
		P95:            hist.Percentile(0.95),
		P99:            hist.Percentile(0.99),
		Events:         c.k.Processed(),
	}
	out.res.Violations, out.res.Granted = c.mgr.Violations()
	c.aud.RunSweeps()
	if err := c.aud.Err(); err != nil {
		return out, err
	}
	tr.add("measure.snapshot", root, s, time.Now(), c.at())

	out.events = c.k.Processed() - events0
	out.accesses = snap1.ReadsDone - snap0.ReadsDone + snap1.WritesDone - snap0.WritesDone
	out.transmits = snap1.ReadHops - snap0.ReadHops + snap1.WriteHops - snap0.WriteHops
	reads, writes := c.fe.Issued()
	out.samples = reads + writes
	for i := range snap1.DRAMReads {
		out.dramAccesses += snap1.DRAMReads[i] + snap1.DRAMWrites[i]
	}
	out.epochs = c.mgr.Epochs()
	for _, b := range kept {
		out.queueMean += float64(b.QueueLen) / float64(len(c.net.Links))
		out.queuedMean += float64(b.QueuedRequests) / float64(len(c.net.Modules))
		out.outstandingMean += float64(b.Outstanding)
	}
	n := float64(len(kept))
	out.queueMean /= n
	out.queuedMean /= n
	out.outstandingMean /= n
	return out, nil
}
