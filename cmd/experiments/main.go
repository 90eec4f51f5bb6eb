// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -run fig5
//	experiments -run all -simtime 1ms
//
// Output is a text table per experiment whose rows/series match the
// paper's plots; EXPERIMENTS.md records a full paper-vs-measured pass.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"memnet/internal/audit"
	"memnet/internal/cli"
	"memnet/internal/durable"
	"memnet/internal/exp"
	"memnet/internal/metrics"
	"memnet/internal/viz"
)

func main() {
	// Same GC posture as memnetsim: the live heap is a few MB but sweep
	// cells churn construction garbage, and GOGC=100 keeps write
	// barriers armed on the event queue's hottest stores for a large
	// fraction of the run. A higher trigger trades a bounded RSS bump
	// for those cycles back.
	debug.SetGCPercent(600)
	os.Exit(cli.Status(run()))
}

func run() error {
	runName := flag.String("run", "", "experiment to run (or 'all')")
	list := flag.Bool("list", false, "list experiments")
	calibrate := flag.Bool("calibrate", false,
		"validate the model against the published reference table and print the accuracy report (exits 1 on drift)")
	simtime := flag.String("simtime", "400us", "measured simulated interval per run")
	warmup := flag.String("warmup", "100us", "simulated warmup per run")
	outDir := flag.String("outdir", "", "also write each experiment's output to <outdir>/<name>.txt")
	verbose := flag.Bool("v", false, "print a line per fresh simulation run")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0),
		"parallel simulation workers per experiment (1 = sequential; output is identical either way)")
	auditEvery := flag.Int("audit", audit.DefaultSampleEvery,
		"invariant auditor sampling stride (1 = check every observation, 0 = disable)")
	storeDir := flag.String("store", "",
		"result store directory: restore the cells it holds, store every fresh one (resumes a killed sweep; shareable with memnetd -store)")
	metricsOn := flag.Bool("metrics", false,
		"sample epoch-resolution metrics in every cell and print a sweep-aggregate time-series figure")
	metricsIntervalF := flag.String("metrics-interval", "10us", "metrics sampling period (with -metrics)")
	metricsOut := flag.String("metrics-out", "",
		"write per-cell metrics to this file; .csv gets CSV, anything else JSON lines (with -metrics)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (taken at exit, after a final GC) to this file")
	flag.Parse()

	if *calibrate {
		return runCalibrate(*jobs, *simtime, *warmup, *outDir)
	}

	if *list || *runName == "" {
		if err := cli.Forbid(flag.CommandLine, "requires -run (nothing to profile)", "cpuprofile", "memprofile"); err != nil {
			return err
		}
		fmt.Println("experiments:")
		for _, e := range exp.Registry {
			heavy := ""
			if e.Heavy {
				heavy = " [heavy]"
			}
			fmt.Printf("  %-9s %s%s\n", e.Name, e.Description, heavy)
		}
		return nil
	}

	stopProfiles, err := cli.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer stopProfiles()

	ctx, stopSignals := cli.InterruptContext()
	defer stopSignals()

	r := exp.NewRunner()
	r.Ctx = ctx
	if r.Settings, err = cli.Common(*jobs, *auditEvery); err != nil {
		return err
	}
	if r.SimTime, err = cli.PositiveDuration("simtime", *simtime); err != nil {
		return err
	}
	if r.Warmup, err = cli.NonNegativeDuration("warmup", *warmup); err != nil {
		return err
	}
	if r.Metrics, err = cli.MetricsInterval(flag.CommandLine, *metricsOn, *metricsIntervalF); err != nil {
		return err
	}
	if *verbose {
		r.Progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}
	r.Jobs = *jobs
	if *storeDir != "" {
		store, err := durable.NewStore(*storeDir)
		if err != nil {
			return fmt.Errorf("bad -store: %v", err)
		}
		r.AttachStore(store)
	}

	// metricsFigure renders the sweep-aggregate time series for the
	// cells recorded since the last call (one experiment's sweep).
	seen := 0
	metricsFigure := func() string {
		if !*metricsOn {
			return ""
		}
		ents := r.MetricsEntries()[seen:]
		seen += len(ents)
		dumps := make([]*metrics.Dump, len(ents))
		for i, e := range ents {
			dumps[i] = e.Dump
		}
		agg, err := metrics.Merge(dumps...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics merge: %v\n", err)
			return ""
		}
		return viz.RenderTimeSeries(agg)
	}

	experiments := exp.Registry
	if *runName != "all" {
		e, ok := exp.Lookup(*runName)
		if !ok {
			return fmt.Errorf("unknown experiment %q; -list shows options", *runName)
		}
		experiments = []exp.Experiment{e}
	}
	fmt.Print(exp.ReportHeader(r))
	if *runName != "all" {
		fmt.Println()
	}
	for _, e := range experiments {
		start := time.Now()
		out := r.Generate(e)
		if *runName == "all" {
			fmt.Printf("\n%s\n(%s in %.1fs)\n", out, e.Name, time.Since(start).Seconds())
		} else {
			fmt.Print(out)
		}
		fmt.Print(metricsFigure())
		if err := save(*outDir, e.Name+".txt", out); err != nil {
			return err
		}
	}
	if *metricsOut != "" {
		if err := cli.WriteMetrics(*metricsOut, r.MetricsEntries()); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote metrics for %d cell(s) to %s\n", len(r.MetricsEntries()), *metricsOut)
	}
	return failures(ctx, r, *storeDir)
}

// failures reports the session's failed cells after rendering — the
// healthy cells still produced output — as the command's error. An
// interrupt is reported as a partial run, not as cell failures:
// completed cells are already stored and a -store rerun resumes from
// them.
func failures(ctx context.Context, r *exp.Runner, storeDir string) error {
	fails := r.Failures()
	if ctx.Err() != nil {
		canceled := 0
		for _, f := range fails {
			if errors.Is(f.Err, context.Canceled) {
				canceled++
			}
		}
		summary := fmt.Sprintf("interrupted: %d cell(s) canceled mid-sweep", canceled)
		if storeDir != "" {
			summary += fmt.Sprintf("; completed cells are stored — rerun with -store %s to resume", storeDir)
		}
		return cli.Interrupted(summary)
	}
	if len(fails) == 0 {
		return nil
	}
	errs := make([]error, len(fails))
	for i, f := range fails {
		errs[i] = f.Err
	}
	var b strings.Builder
	if panicked := cli.Panics(errs); panicked > 0 {
		fmt.Fprintf(&b, "\n%d cell(s) failed (%d panicked):", len(fails), panicked)
	} else {
		fmt.Fprintf(&b, "\n%d cell(s) failed:", len(fails))
	}
	for _, f := range fails {
		fmt.Fprintf(&b, "\n  %s: %v", f.Key, f.Err)
	}
	return errors.New(b.String())
}

// save writes one experiment's output to dir/name, when dir is set.
func save(dir, name, out string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("outdir: %v", err)
	}
	path := dir + "/" + name
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		return fmt.Errorf("write %s: %v", path, err)
	}
	return nil
}
