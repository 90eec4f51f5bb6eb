// Command memnetsim runs one memory-network simulation and reports power,
// performance and utilization; with -metrics it also samples the run per
// epoch (completions, latency, link residency, violations, grants).
//
// Example:
//
//	memnetsim -wl mixB -topo star -size small -mech VWL+ROO -policy aware -alpha 0.05
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"memnet/internal/audit"
	"memnet/internal/cli"
	"memnet/internal/durable"
	"memnet/internal/exp"
	"memnet/internal/metrics"
	"memnet/internal/sim"
	"memnet/internal/viz"
)

func main() {
	// The simulator's live heap is a few MB (pooled events, per-cell
	// models), but each sweep cell's construction churns tens of MB, so
	// the default GOGC=100 trigger fires a collection every ~50 ms and
	// keeps write barriers armed on the event queue's hottest stores for
	// a third of the run. Letting the heap grow several multiples first
	// trades tens of MB of peak RSS for those cycles back.
	debug.SetGCPercent(600)
	os.Exit(cli.Status(run()))
}

func run() error {
	wlName := flag.String("wl", "mixB", "workload profile")
	topoName := flag.String("topo", "star", "daisychain | 'ternary tree' | star | DDRx-like")
	sizeName := flag.String("size", "small", "small (4GB/module) or big (1GB/module)")
	mechName := flag.String("mech", "VWL+ROO", "link power mechanism")
	policyName := flag.String("policy", "aware", "none | unaware | aware | static")
	alpha := flag.Float64("alpha", 0.05, "allowable slowdown factor")
	simtime := flag.String("simtime", "400us", "measured simulated interval")
	warmupF := flag.String("warmup", "100us", "simulated warmup")
	wakeup := flag.Int("wakeup", 14, "ROO wakeup latency (ns)")
	config := flag.String("config", "", "JSON batch config (the single-run flags are rejected with it)")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0),
		"parallel workers for -config batches (1 = one cell at a time)")
	auditEvery := flag.Int("audit", audit.DefaultSampleEvery,
		"invariant auditor sampling stride (1 = check every observation, 0 = disable)")
	storeDir := flag.String("store", "",
		"with -config: result store directory; runs it holds are restored, fresh ones stored (shareable with memnetd -store)")
	metricsOn := flag.Bool("metrics", false,
		"sample epoch-resolution metrics over the measured interval and print a time-series figure")
	metricsIntervalF := flag.String("metrics-interval", "10us", "metrics sampling period (with -metrics)")
	metricsOut := flag.String("metrics-out", "",
		"write sampled metrics to this file; .csv gets CSV, anything else JSON lines (with -metrics)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (taken at exit, after a final GC) to this file")
	flag.Parse()

	if *config != "" {
		if err := cli.Forbid(flag.CommandLine, "not supported with -config (each run's fields come from the file)",
			"wl", "topo", "size", "mech", "policy", "alpha", "simtime", "warmup", "wakeup"); err != nil {
			return err
		}
	}
	// st carries the run settings every spec shares: the audit stride and
	// the metrics interval.
	st, err := cli.Common(*jobs, *auditEvery)
	if err != nil {
		return err
	}
	if st.Metrics, err = cli.MetricsInterval(flag.CommandLine, *metricsOn, *metricsIntervalF); err != nil {
		return err
	}

	stopProfiles, err := cli.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer stopProfiles()

	ctx, stopSignals := cli.InterruptContext()
	defer stopSignals()

	if *config != "" {
		return runBatch(ctx, *config, st, *jobs, *storeDir, *metricsOut)
	}

	spec, err := exp.Axes{Workload: *wlName, Topology: *topoName, Size: *sizeName,
		Mechanism: *mechName, Policy: *policyName}.Parse()
	if err != nil {
		return cli.FlagError(err)
	}
	spec.Alpha = *alpha
	spec.Wakeup = sim.Duration(*wakeup) * sim.Nanosecond
	if spec.SimTime, err = cli.PositiveDuration("simtime", *simtime); err != nil {
		return err
	}
	if spec.Warmup, err = cli.NonNegativeDuration("warmup", *warmupF); err != nil {
		return err
	}
	spec = st.Apply(spec)
	if err := spec.Validate(); err != nil {
		return cli.FlagError(err)
	}

	start := time.Now()
	res, err := exp.RunCtx(ctx, spec)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			return cli.Interrupted(fmt.Sprintf(
				"interrupted after %.2fs wall; no result (single runs have nothing partial to keep)",
				time.Since(start).Seconds()))
		}
		return err
	}
	report(res, time.Since(start))
	if !*metricsOn {
		return nil
	}
	fmt.Print(viz.RenderTimeSeries(res.Metrics))
	return exportMetrics(*metricsOut, []metrics.Entry{{Key: spec.Key(), Dump: res.Metrics}})
}

// exportMetrics writes -metrics-out, if set, and says so.
func exportMetrics(path string, entries []metrics.Entry) error {
	if path == "" {
		return nil
	}
	if err := cli.WriteMetrics(path, entries); err != nil {
		return err
	}
	fmt.Printf("wrote metrics to %s\n", path)
	return nil
}

// runBatch executes every run in a JSON config file across jobs workers;
// reports print in config order regardless of completion order. Runs
// take st's audit stride and metrics interval where the config leaves
// them unset. A failed run (audit violation, recovered panic) is
// reported in place and fails the batch without aborting the remaining
// runs; with -store, runs the store holds are restored instead of re-run.
// SIGINT or SIGTERM cancels ctx: in-flight cells abort at the next
// kernel check, completed runs stay stored, and the command exits 130
// after a partial-results summary.
func runBatch(ctx context.Context, path string, st exp.Settings, jobs int, storeDir, metricsOut string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	specs, err := exp.LoadBatch(f)
	f.Close()
	if err != nil {
		return err
	}
	for i := range specs {
		specs[i] = st.Apply(specs[i])
		if err := specs[i].Validate(); err != nil {
			return fmt.Errorf("run %d: %w", i+1, cli.FlagError(err))
		}
	}
	var store *durable.Store
	if storeDir != "" {
		if store, err = durable.NewStore(storeDir); err != nil {
			return err
		}
	}
	start := time.Now()
	results, errs := exp.RunSpecs(ctx, specs, jobs, store)
	if ctx.Err() != nil {
		completed := 0
		for _, e := range errs {
			if e == nil {
				completed++
			}
		}
		summary := fmt.Sprintf("interrupted: %d of %d runs completed", completed, len(specs))
		if store != nil {
			summary += fmt.Sprintf("; rerun with -store %s to resume", storeDir)
		}
		return cli.Interrupted(summary)
	}
	failed := 0
	var entries []metrics.Entry
	for i, res := range results {
		fmt.Printf("--- run %d/%d ---\n", i+1, len(specs))
		if errs[i] != nil {
			failed++
			fmt.Printf("FAILED: %v\n", errs[i])
			continue
		}
		report(res, 0) // per-run wall time is meaningless under the pool
		if res.Metrics != nil {
			fmt.Print(viz.RenderTimeSeries(res.Metrics))
			entries = append(entries, metrics.Entry{Key: specs[i].Key(), Dump: res.Metrics})
		}
	}
	if err := exportMetrics(metricsOut, entries); err != nil {
		return err
	}
	fmt.Printf("batch: %d runs in %.2fs wall (-jobs %d)\n",
		len(specs), time.Since(start).Seconds(), jobs)
	if failed == 0 {
		return nil
	}
	if panicked := cli.Panics(errs); panicked > 0 {
		return fmt.Errorf("%d of %d runs failed (%d panicked)", failed, len(specs), panicked)
	}
	return fmt.Errorf("%d of %d runs failed", failed, len(specs))
}

// report prints one run's results.
func report(res exp.Result, wall time.Duration) {
	spec := res.Spec
	fmt.Printf("workload %s on %s %s network (%d modules), %s links, %s policy, alpha=%.1f%%\n",
		spec.Workload.Name, spec.Size, spec.Topology, res.Modules, spec.Mech, spec.Policy, 100*spec.Alpha)
	fmt.Printf("  power/HMC:     %.3f W  (%s)\n", res.PerHMC.Total(), res.PerHMC)
	fmt.Printf("  idle I/O:      %.1f%% of total network power\n", 100*res.IdleIOFraction())
	fmt.Printf("  throughput:    %.1f M accesses/s\n", res.Throughput/1e6)
	fmt.Printf("  read latency:  %s avg, %s p50, %s p95, %s p99\n",
		res.AvgReadLatency, res.P50, res.P95, res.P99)
	fmt.Printf("  channel util:  %.1f%%   avg link util: %.1f%%\n", 100*res.ChannelUtil, 100*res.LinkUtil)
	fmt.Printf("  links/access:  %.2f\n", res.LinksPerAccess)
	fmt.Printf("  violations:    %d (%d absorbed by AMS grants)\n", res.Violations, res.Granted)
	if wall > 0 {
		fmt.Printf("  simulated %s in %.2fs wall (%.1fM events)\n",
			spec.SimTime+spec.Warmup, wall.Seconds(), float64(res.Events)/1e6)
	} else {
		fmt.Printf("  simulated %s (%.1fM events)\n",
			spec.SimTime+spec.Warmup, float64(res.Events)/1e6)
	}
}
