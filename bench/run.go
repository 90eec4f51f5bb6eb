package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"syscall"
	"time"

	"memnet/internal/exp"
)

// setupBuilds is how many cell builds the traced run's set-up phases are
// the median of.
const setupBuilds = 50

// An untraced run samples set-up time throughout, not in one burst at its
// start: buildsPerCell cell builds after every simulator cell, one memnetd
// restart after every slice of daemon load. The host's speed drifts over
// seconds, and the median of 15 memnetd starts made back to back moved by
// up to 2x from run to run.
const buildsPerCell = 2

// The tail percentile leaves about ten ops beyond it: a simulator run
// times 23-44 cells (p60 leaves 9-17 beyond). A daemon run has 690-905
// jobs, but its slowest few percent stall on fsyncs to a disk shared with
// other tenants: over one set of ten runs its p99 spread 0.11 and its p95
// 0.078, against 0.057 for p90.
const (
	tailSim    = 0.60
	tailDaemon = 0.90
)

// options are the per-run settings every workload runner takes.
type options struct {
	seed     uint64
	seconds  time.Duration
	memnetd  string // memnetd binary
	tmp      string // scratch directory for daemon stores and fixtures
	expected map[string]digest
}

// outcome is one run's operation counts and metrics by name.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	fmt.Fprintf(os.Stderr, "FAILED: "+format+"\n", args...)
}

// checkReference runs spec through exp.RunCtx and holds its statistics to
// the digest pinned for name. A failed cell is counted, not returned; the
// error is only for a canceled run.
func checkReference(ctx context.Context, o *outcome, name string, spec exp.Spec, expected map[string]digest) (exp.Result, error) {
	res, err := exp.RunCtx(ctx, spec)
	o.attempted++
	if ctx.Err() != nil {
		return res, ctx.Err()
	}
	want, pinned := expected[name]
	switch {
	case err != nil:
		o.fail("%s reference cell: %v", name, err)
	case !pinned:
		o.fail("%s: no pinned digest in testdata/expected.json", name)
	case digestOf(res) != want:
		o.fail("%s reference cell: statistics %+v differ from the pinned %+v", name, digestOf(res), want)
	}
	return res, nil
}

// measureSetup builds spec n times and returns each build's wall seconds
// and each phase's wall milliseconds.
func measureSetup(spec exp.Spec, n int) ([]float64, map[string][]float64, error) {
	var totals []float64
	phases := map[string][]float64{}
	for i := 0; i < n; i++ {
		start := time.Now()
		t := start
		if _, err := buildCell(spec, func(phase string) {
			now := time.Now()
			phases[phase] = append(phases[phase], msOf(now.Sub(t)))
			t = now
		}); err != nil {
			return nil, nil, err
		}
		totals = append(totals, time.Since(start).Seconds())
	}
	return totals, phases, nil
}

// runSim is an untraced simulator run: the reference cell (also the
// warm-up), then seeded cells through exp.RunCtx until the time is up,
// with set-up builds after each. Every time is normalized by the
// host-speed probes taken next to it (see hostFactor).
func runSim(ctx context.Context, w benchWorkload, opt options) (*outcome, error) {
	o := newOutcome()
	if _, err := checkReference(ctx, o, w.name, referenceSpec(w), opt.expected); err != nil {
		return nil, err
	}
	clock := newHostClock()
	var raw, walls, setup []float64
	var total float64
	begin := time.Now()
	for i := 1; time.Since(begin) < opt.seconds; i++ {
		var err error
		wall, f := clock.time(func() { _, err = exp.RunCtx(ctx, cellSpec(w, opt.seed, i)) })
		o.attempted++
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if err != nil {
			o.fail("%s cell %d: %v", w.name, i, err)
			continue
		}
		raw = append(raw, wall/f)
		walls = append(walls, wall)
		total += wall
		// The builds follow the probe that closed the cell's timing.
		builds, _, err := measureSetup(cellSpec(w, opt.seed, 0), buildsPerCell)
		if err != nil {
			return nil, err
		}
		for _, b := range builds {
			setup = append(setup, b*clock.factor)
		}
	}
	if len(walls) == 0 {
		return nil, errors.New("no cell completed")
	}
	fmt.Fprintf(os.Stderr, "%d cells, unnormalized median %.1f ms\n", len(raw), median(raw))
	o.metrics["wall_ms_per_sim_us"] = median(walls) / simMicros(w.spec)
	o.metrics["op_p50_ms"] = median(walls)
	o.metrics["op_tail_ms"] = percentile(walls, tailSim)
	o.metrics["ops_per_s"] = float64(len(walls)) / (total / 1000)
	o.metrics["max_rss_mb"] = selfMaxRSSMB()
	o.metrics["setup_s"] = median(setup)
	return o, nil
}

// runDaemon is an untraced daemon run: the closed loop against one memnetd
// for 2 s of warm-up plus the measured time, with a second memnetd
// restarted after every slice to time set-up.
//
// The restarts share one store, as a daemon restarted in place does. Over
// 24 runs each on the bench host, starts over a fresh store had a
// run-to-run spread of 0.26 and tracked a file-system probe (correlation
// 0.89): creating the store's directory and files waits on the journal,
// whose latency swung threefold over minutes. Restarts over one store had
// a spread of 0.08.
func runDaemon(ctx context.Context, w benchWorkload, opt options) (*outcome, error) {
	client, tp := newClient()
	defer tp.CloseIdleConnections()
	dir, err := os.MkdirTemp(opt.tmp, "memnetd-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	restartDir, err := os.MkdirTemp(opt.tmp, "memnetd-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(restartDir)
	d, err := startDaemon(ctx, client, opt, dir)
	if err != nil {
		return nil, err
	}
	var setups []float64
	restartClient, restartTp := newClient()
	restart := func(factor float64) error {
		defer restartTp.CloseIdleConnections()
		t := time.Now()
		s, err := startDaemon(ctx, restartClient, opt, restartDir)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds()*factor)
		return s.stop()
	}
	lr, err := driveLoad(ctx, client, d, w, opt.seed, 2*time.Second, opt.seconds, opt.expected[w.name], nil, restart)
	if err != nil {
		d.kill()
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	o := newOutcome()
	o.attempted, o.failed = lr.attempted, lr.failed
	var all, fresh []float64
	for _, j := range lr.jobs {
		all = append(all, j.ms())
		if j.fresh {
			fresh = append(fresh, j.ms())
		}
	}
	if len(fresh) == 0 {
		return nil, errors.New("no fresh job completed in the measured window")
	}
	o.metrics["wall_ms_per_sim_us"] = median(fresh) / simMicros(w.spec)
	o.metrics["op_p50_ms"] = median(all)
	o.metrics["op_tail_ms"] = percentile(all, tailDaemon)
	o.metrics["ops_per_s"] = float64(len(all)) / lr.seconds
	o.metrics["max_rss_mb"] = lr.rssMB
	o.metrics["setup_s"] = median(setups)
	return o, nil
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-quantile.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// selfMaxRSSMB is this process's peak resident set.
func selfMaxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}
