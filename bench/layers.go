package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"memnet/internal/exp"
	"memnet/internal/sim"
)

// tracedCells is how many seeded cells the traced run traces. Their counts
// are exact; the daemon's cells are ~30 ms, so it takes more of them for
// their wall time to stand above clock noise in the ledger.
func tracedCells(w benchWorkload) int {
	if w.daemon {
		return 20
	}
	return 3
}

// overheadRounds is how many rounds of short cells the overhead passes
// time. Passes a fraction of a second apart see the same host speed;
// whole cells run back to back did not, and their ratios swung by ±10%.
const overheadRounds = 30

// overheadScale shortens a simulator cell for the overhead passes; the
// daemon's cell is already short.
const overheadScale = 10

// serviceWarm and serviceMeasure bound the traced run's memnetd phase.
// Every workload runs it, so every workload reports the serve rows.
const (
	serviceWarm    = time.Second
	serviceMeasure = 4 * time.Second
)

// runTraced is the per-layer run (-trace 1). Every workload measures its
// own cell (the daemon's is the fresh job's): set-up phases, the pinned
// reference cell, seeded cells run through exp.RunCtx and then traced,
// the overhead passes, isolated layer fixtures, the serve fixtures with
// this cell's result, and a short memnetd phase. It writes
// trace-<workload>-<seed>.json under outDir.
func runTraced(ctx context.Context, w benchWorkload, opt options, outDir string) (*outcome, error) {
	o := newOutcome()
	m := o.metrics
	tr := newTracer()

	_, phases, err := measureSetup(cellSpec(w, opt.seed, 0), setupBuilds)
	if err != nil {
		return nil, err
	}
	var setupMs float64
	for _, p := range []string{"topology", "network", "manager", "frontend"} {
		m["exp.setup_"+p+"_ms"] = median(phases[p])
		setupMs += median(phases[p])
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ref, err := checkReference(ctx, o, w.name, referenceSpec(w), opt.expected)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	m["exp.alloc_mb_per_cell"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)

	// Each seeded cell runs through exp.RunCtx, then traced; the two must
	// agree. The traced wall is raw, like the fixture times the ledger
	// holds it against.
	var tracedMs float64
	var tc tracedCell // sums over the traced cells
	var latAvg, latP99, perHMC, linkUtil, violations float64
	var cells float64
	modules := float64(w.spec.Workload.Modules(w.spec.Size.ChunkGB()))
	for i := 1; i <= tracedCells(w); i++ {
		spec := cellSpec(w, opt.seed, i)
		res, err := exp.RunCtx(ctx, spec)
		o.attempted++
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if err != nil {
			o.fail("%s cell %d: %v", w.name, i, err)
			continue
		}
		t := time.Now()
		c, err := traceCell(ctx, tr, 0, spec)
		traced := msOf(time.Since(t))
		o.attempted++
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if err != nil {
			o.fail("%s traced cell %d: %v", w.name, i, err)
			continue
		}
		if d := relDiff(c.res.LinksPerAccess, res.LinksPerAccess); d > 0.01 {
			o.fail("%s traced cell %d: links/access %g vs exp.RunCtx %g", w.name, i, c.res.LinksPerAccess, res.LinksPerAccess)
		}
		if d := relDiff(float64(c.res.Events), float64(res.Events)); d > 0.03 {
			o.fail("%s traced cell %d: %d events vs exp.RunCtx %d", w.name, i, c.res.Events, res.Events)
		}
		cells++
		tracedMs += traced
		tc.events += c.events
		tc.accesses += c.accesses
		tc.transmits += c.transmits
		tc.samples += c.samples
		tc.dramAccesses += c.dramAccesses
		tc.epochs += c.epochs
		tc.res.Events += c.res.Events
		tc.pendingMax = max(tc.pendingMax, c.pendingMax)
		tc.queueMean += c.queueMean
		tc.queuedMean += c.queuedMean
		tc.outstandingMean += c.outstandingMean
		latAvg += float64(c.res.AvgReadLatency) / float64(sim.Nanosecond)
		latP99 += float64(c.res.P99) / float64(sim.Nanosecond)
		perHMC += c.res.Power.Total() / modules
		linkUtil += c.res.LinkUtil
		violations += float64(c.res.Violations)
	}
	if cells == 0 {
		return nil, fmt.Errorf("no traced cell completed")
	}
	m["sim.events_per_access"] = float64(tc.events) / float64(tc.accesses)
	m["sim.pending_max"] = float64(tc.pendingMax)
	m["link.transmits_per_access"] = float64(tc.transmits) / float64(tc.accesses)
	m["core.epochs"] = float64(tc.epochs) / cells
	m["core.violations"] = violations / cells
	m["link.util_mean"] = linkUtil / cells
	m["link.queue_mean"] = tc.queueMean / cells
	m["dram.queued_mean"] = tc.queuedMean / cells
	m["workload.outstanding_mean"] = tc.outstandingMean / cells
	m["network.read_latency_avg_ns"] = latAvg / cells
	m["network.read_latency_p99_ns"] = latP99 / cells
	m["power.per_hmc_w"] = perHMC / cells
	if err := passOverheads(ctx, o, w, opt.seed); err != nil {
		return nil, err
	}

	// Layer fixtures, each sized from what the traced cells recorded.
	eventsPerPs := float64(tc.events) / (cells * float64(w.spec.SimTime))
	nsEvent := kernelNsPerEvent(tc.pendingMax, float64(tc.pendingMax)/eventsPerPs)
	m["sim.ns_per_event"] = nsEvent
	linkWall, linkEvents := linkNsPerTransmit(w.spec.Mech)
	m["link.ns_per_transmit"] = linkWall
	linkSelf := linkWall - linkEvents*nsEvent
	dramCfg := netConfig(w.spec).DRAM
	queuedWall, queuedEvents := dramNsPerAccess(dramCfg, true)
	idleWall, idleEvents := dramNsPerAccess(dramCfg, false)
	m["dram.ns_per_access_queued"] = queuedWall
	m["dram.ns_per_access_idle"] = idleWall
	dramSelf := idleWall - idleEvents*nsEvent
	if m["dram.queued_mean"] >= 1 {
		dramSelf = queuedWall - queuedEvents*nsEvent
	}
	m["workload.ns_per_sample"] = samplerNsPerSample(w.spec.Workload)
	readWall, readEvents, readTransmits, err := networkIdleRead(w.spec)
	if err != nil {
		return nil, err
	}
	m["network.ns_per_read_idle"] = readWall
	netSelf := readWall - readEvents*nsEvent - readTransmits*linkSelf - (idleWall - idleEvents*nsEvent)
	if m["core.ms_per_epoch"], err = epochMs(w.spec, nsEvent); err != nil {
		return nil, err
	}

	// The ledger: fixture self time times the traced cells' counts,
	// against the traced cells' wall. The traced cells also carry the
	// auditor, priced by its pass, and their set-up. Their wall covers the
	// warmup, so measured-interval counts are scaled up by events.
	whole := float64(tc.res.Events) / float64(tc.events)
	explainedNs := float64(tc.res.Events)*nsEvent +
		whole*float64(tc.transmits)*linkSelf +
		float64(tc.dramAccesses)*dramSelf +
		whole*float64(tc.accesses)*netSelf +
		float64(tc.samples)*m["workload.ns_per_sample"] +
		float64(tc.epochs)*m["core.ms_per_epoch"]*1e6 +
		cells*setupMs*1e6 +
		tracedMs*1e6*m["audit.overhead"]/(1+m["audit.overhead"])
	m["ledger.unexplained_frac"] = 1 - explainedNs/(tracedMs*1e6)

	dir, err := os.MkdirTemp(opt.tmp, "fixture-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if m["serve.wal_accept_ms"], err = walAcceptMs(dir, w.spec); err != nil {
		return nil, err
	}
	payload, err := json.Marshal(ref)
	if err != nil {
		return nil, err
	}
	if m["serve.store_put_ms"], m["serve.store_get_ms"], err = storeMs(dir, payload); err != nil {
		return nil, err
	}

	if err := serviceRows(ctx, o, tr, opt); err != nil {
		return nil, err
	}
	return o, tr.write(outDir, fmt.Sprintf("trace-%s-%d.json", w.name, opt.seed), m)
}

// passOverheads runs overheadRounds short cells four ways each, in an
// order that rotates every round: plain exp.RunCtx (cancellation armed,
// audited), cancellation disarmed (a context that is never done, which
// exp.RunCtx does not poll), unaudited, and traced. It records the median
// ratios of the plain pass over each disarmed one, and of the traced pass
// over the plain one, each minus 1.
func passOverheads(ctx context.Context, o *outcome, w benchWorkload, seed uint64) error {
	short := scaled(w, overheadScale)
	var cancel, audit, trace []float64
	for i := 1; i <= overheadRounds; i++ {
		spec := cellSpec(short, seed, i)
		quiet := spec
		quiet.AuditEvery = -1
		passes := []func() error{
			func() error { _, err := exp.RunCtx(ctx, spec); return err },
			func() error { _, err := exp.RunCtx(context.Background(), spec); return err },
			func() error { _, err := exp.RunCtx(ctx, quiet); return err },
			func() error { _, err := traceCell(ctx, newTracer(), 0, spec); return err },
		}
		var walls [4]float64
		for j := range passes {
			k := (i + j) % len(passes)
			t := time.Now()
			err := passes[k]()
			walls[k] = msOf(time.Since(t))
			o.attempted++
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if err != nil {
				o.fail("%s short cell %d, pass %d: %v", w.name, i, k, err)
			}
		}
		cancel = append(cancel, walls[0]/walls[1]-1)
		audit = append(audit, walls[0]/walls[2]-1)
		trace = append(trace, walls[3]/walls[0]-1)
	}
	o.metrics["sim.cancel_overhead"] = median(cancel)
	o.metrics["audit.overhead"] = median(audit)
	o.metrics["trace.overhead"] = median(trace)
	return nil
}

// serviceRows drives memnetd with the daemon job mix for the service
// phase and records the serve rows.
func serviceRows(ctx context.Context, o *outcome, tr *tracer, opt options) error {
	dw, err := lookupWorkload("daemon")
	if err != nil {
		return err
	}
	client, tp := newClient()
	defer tp.CloseIdleConnections()
	dir, err := os.MkdirTemp(opt.tmp, "memnetd-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	t := time.Now()
	d, err := startDaemon(ctx, client, opt, dir)
	if err != nil {
		return err
	}
	tr.add("daemon.start", 0, t, time.Now(), nil)
	lr, err := driveLoad(ctx, client, d, dw, opt.seed, serviceWarm, serviceMeasure, opt.expected[dw.name], tr, nil)
	if err != nil {
		d.kill()
		return err
	}
	if err := d.stop(); err != nil {
		return err
	}
	o.attempted += lr.attempted
	o.failed += lr.failed
	var submit, hit, fresh []float64
	for _, j := range lr.jobs {
		submit = append(submit, j.submitMs())
		if j.fresh {
			fresh = append(fresh, j.ms())
		} else {
			hit = append(hit, j.ms())
		}
	}
	m := o.metrics
	m["serve.submit_ms_p50"] = median(submit)
	m["serve.hit_latency_p50_ms"] = median(hit)
	m["serve.fresh_latency_p99_ms"] = percentile(fresh, 0.99)
	m["serve.cells_run"] = float64(lr.stats.CellsRun)
	m["serve.cache_hits"] = float64(lr.stats.CacheHits)
	m["serve.rejected"] = float64(lr.stats.Rejected)
	return nil
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}
