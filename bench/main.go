// Command bench is memnet's repository benchmark. It runs one workload —
// three simulator workloads through exp.RunCtx, and one against a real
// memnetd over loopback HTTP — checks every output, and prints one JSON
// line as the last line of stdout:
//
//	{"correct": true, "attempted": 25, "failed": 0, "metrics": {"op_p50_ms": {"value": 801.2, "unit": "ms"}, ...}}
//
// Run it from the repository root with bench/run.sh, which builds this
// command and memnetd first:
//
//	bash bench/run.sh --workload chain-managed --seed 1 --seconds 25 --trace 0
//
// -trace 0 reports the end-to-end metrics; -trace 1 runs the per-layer
// ledger instead and writes trace-<workload>-<seed>.json under -out.
// -list prints the workloads and metric names; -update rewrites the
// pinned reference digests. bench/README.md describes every workload and
// metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	// The CLIs' collector setting: cell construction churns tens of MB.
	debug.SetGCPercent(600)

	name := flag.String("workload", "", "workload to run (see -list)")
	seed := flag.Uint64("seed", 1, "input seed (1 is the default, 2 is held out)")
	seconds := flag.Int("seconds", 25, "measured time per run")
	trace := flag.Int("trace", 0, "1 runs the per-layer ledger instead of the end-to-end metrics")
	out := flag.String("out", ".bench_build/traces", "directory for trace files")
	tmp := flag.String("tmp", ".bench_build/tmp", "scratch directory for daemon stores and fixtures")
	memnetd := flag.String("memnetd", ".bench_build/bin/memnetd", "memnetd binary")
	list := flag.Bool("list", false, "print the workloads and metrics, then exit")
	update := flag.String("update", "", "rerun every reference cell and rewrite the pinned digests into this file")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	switch {
	case *list:
		printList(os.Stdout)
		return nil
	case *update != "":
		return updateExpected(ctx, *update)
	case flag.NArg() > 0:
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	case *seconds < 1:
		return fmt.Errorf("-seconds must be at least 1")
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	expected, err := loadExpected()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*tmp, 0o755); err != nil {
		return err
	}
	opt := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		memnetd: *memnetd, tmp: *tmp, expected: expected}

	var o *outcome
	defs := endToEnd
	switch {
	case *trace == 1:
		defs = perLayer
		o, err = runTraced(ctx, w, opt, *out)
	case w.daemon:
		o, err = runDaemon(ctx, w, opt)
	default:
		o, err = runSim(ctx, w, opt)
	}
	if err != nil {
		return err
	}
	return report(os.Stdout, o, defs)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the result line: exactly the metrics in defs, each with
// its unit.
func report(out io.Writer, o *outcome, defs []metricDef) error {
	ms := map[string]metricValue{}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured (%v)", d.name, v)
		}
		ms[d.name] = metricValue{v, d.unit}
	}
	if o.attempted < 1 {
		return errors.New("no operation attempted")
	}
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(b))
	return err
}

// printList prints one line per workload and metric; bench_test.go holds
// it to BENCHMARK.json.
func printList(out io.Writer) {
	for _, w := range workloads {
		fmt.Fprintln(out, "workload", w.name)
	}
	for _, d := range endToEnd {
		fmt.Fprintln(out, "end_to_end", d.name, d.unit, d.better())
	}
	for _, d := range perLayer {
		fmt.Fprintln(out, "per_layer", d.name, d.unit, d.better())
	}
}
