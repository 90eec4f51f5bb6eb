package exp

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"memnet/internal/audit"
	"memnet/internal/core"
	"memnet/internal/metrics"
	"memnet/internal/sim"
	"memnet/internal/topology"
	"memnet/internal/workload"
)

// SweepBench is the machine-readable record `make bench` writes to
// BENCH_sweep.json so the simulator's performance trajectory — kernel
// event throughput and sweep-executor scaling — is tracked across PRs.
type SweepBench struct {
	// Cells is the number of independent simulations in the sweep.
	Cells int `json:"cells"`
	// Jobs is the parallel worker count measured against -jobs 1.
	Jobs       int `json:"jobs"`
	GOMAXPROCS int `json:"gomaxprocs"`
	// Events is the total simulated events across the sweep (identical
	// for both executions; asserted by MeasureSweep).
	Events     uint64  `json:"events"`
	WallSeqSec float64 `json:"wall_seq_sec"`
	WallParSec float64 `json:"wall_par_sec"`
	// WallAuditSec is a third sequential pass with the invariant auditor
	// at its default sampling stride; AuditOverhead is its slowdown
	// relative to the unaudited sequential pass (0.03 = 3% slower). The
	// budget for the default stride is overheadBudget in cmd/benchdiff.
	WallAuditSec  float64 `json:"wall_audit_sec"`
	AuditOverhead float64 `json:"audit_overhead"`
	// WallMetricsSec is a fourth sequential pass with the metrics sampler
	// armed at its default interval; MetricsOverhead is its slowdown
	// relative to the plain sequential pass, against the same budget.
	WallMetricsSec  float64 `json:"wall_metrics_sec"`
	MetricsOverhead float64 `json:"metrics_overhead"`
	// WallCancelSec is a fifth sequential pass run under a cancelable
	// (but never canceled) context, which arms the kernel's cooperative
	// cancellation check at its default stride — the configuration every
	// memnetd job and every ^C-interruptible CLI batch runs in.
	// CancelOverhead is its slowdown relative to the plain sequential
	// pass; cmd/benchdiff holds it to cancelBudget.
	WallCancelSec  float64 `json:"wall_cancel_sec"`
	CancelOverhead float64 `json:"cancel_overhead"`
	EventsPerSec   struct {
		Seq float64 `json:"seq"`
		Par float64 `json:"par"`
	} `json:"events_per_sec"`
	// Speedup is sequential wall time over parallel wall time.
	Speedup float64 `json:"speedup"`
}

// String renders the one-line human summary.
func (b SweepBench) String() string {
	return fmt.Sprintf(
		"sweep: %d cells, %d events; -jobs 1: %.2fs (%.1fM ev/s); -jobs %d: %.2fs (%.1fM ev/s); speedup %.2fx; audit %+.1f%%; metrics %+.1f%%; cancel %+.1f%% (GOMAXPROCS=%d)",
		b.Cells, b.Events, b.WallSeqSec, b.EventsPerSec.Seq/1e6,
		b.Jobs, b.WallParSec, b.EventsPerSec.Par/1e6, b.Speedup,
		b.AuditOverhead*100, b.MetricsOverhead*100, b.CancelOverhead*100, b.GOMAXPROCS)
}

// BenchSweepSpecs builds the standard benchmark sweep: the representative
// workload subset (bench_test.go's set) crossed with every topology and
// the FP / VWL+ROO extremes — 32 hermetic cells.
func BenchSweepSpecs(simTime, warmup sim.Duration) ([]Spec, error) {
	var specs []Spec
	for _, name := range []string{"sp.D", "mixB", "mg.D", "mixC"} {
		wl, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, topo := range topology.Kinds {
			for _, cfg := range []struct {
				mech Mech
				pol  core.PolicyKind
			}{{MechFP, core.PolicyNone}, {MechVWLROO, core.PolicyAware}} {
				specs = append(specs, Spec{
					Workload: wl, Topology: topo, Size: Big,
					Mech: cfg.mech, Policy: cfg.pol, Alpha: 0.05,
					SimTime: simTime, Warmup: warmup,
				})
			}
		}
	}
	return specs, nil
}

// MeasureSweep runs specs once with one worker and once with jobs
// workers, wall-clocks both, and cross-checks that the parallel execution
// produced identical simulations (same total event count).
//
// The parallel pass only measures scaling when it runs at real
// parallelism: jobs <= 1 re-times the sequential path, and jobs beyond
// the machine measures scheduler churn (the committed record once
// reported a 0.94x "speedup" from a -jobs 4 pass on GOMAXPROCS=1).
// Both degenerate requests are therefore clamped to the full
// runtime.GOMAXPROCS(0); an explicit 1 < jobs <= GOMAXPROCS is honored.
//
// Every measurement is repeated measureRounds times. The ratios the
// record exists for — speedup, audit and metrics overhead — divide
// walls that a naive pass-after-pass sweep measures tens of seconds
// apart, and on shared hardware the clock drifts phase-like on exactly
// that timescale: a single ordered sweep of passes routinely showed
// ±10% "overhead" from an observational subsystem whose true cost is
// ~1%. The four sequential variants are therefore timed cell by cell,
// back to back (plain, audited, sampled, cancel-armed — a fraction of a
// second per tuple, well inside one phase), and each pass keeps its own
// per-cell minimum across rounds, so every overhead ratio divides
// same-phase floors rather than a typical numerator by a lucky
// denominator. The parallel pass overlaps cells across workers, so it
// is timed whole and keeps its per-round minimum.
func MeasureSweep(specs []Spec, jobs int) (SweepBench, error) {
	const measureRounds = 2
	if maxp := runtime.GOMAXPROCS(0); jobs <= 1 || jobs > maxp {
		jobs = maxp
	}

	// Audit pass spec: the invariant auditor at its default sampling
	// stride prices the audit hooks. The auditor is observational, so
	// every cell must reproduce the unaudited events.
	audited := make([]Spec, len(specs))
	for i, s := range specs {
		s.AuditEvery = audit.DefaultSampleEvery
		audited[i] = s
	}
	// Metrics pass spec: the sampler at its default interval prices the
	// tick events and registry pulls. Sampling is observational but the
	// ticks themselves are kernel events, so the cross-check below
	// compares throughput, not event counts.
	sampled := make([]Spec, len(specs))
	for i, s := range specs {
		s.MetricsInterval = metrics.DefaultInterval
		sampled[i] = s
	}

	// Cancel pass context: cancelable but never canceled, which is what
	// arms the kernel's cooperative check — the state every daemon job
	// and interruptible CLI batch simulates in.
	armedCtx, armedCancel := context.WithCancel(context.Background())
	defer armedCancel()

	seq := make([]Result, len(specs))
	audres := make([]Result, len(specs))
	metres := make([]Result, len(specs))
	canres := make([]Result, len(specs))
	seqW := make([]float64, len(specs))
	audW := make([]float64, len(specs))
	metW := make([]float64, len(specs))
	canW := make([]float64, len(specs))
	var par []Result
	var wallPar float64
	timeCell := func(sp []Spec, i int, res []Result) (float64, error) {
		start := time.Now()
		r, err := Run(sp[i])
		if err != nil {
			return 0, err
		}
		res[i] = r
		return time.Since(start).Seconds(), nil
	}
	timeCellArmed := func(i int, res []Result) (float64, error) {
		start := time.Now()
		r, err := RunCtx(armedCtx, specs[i])
		if err != nil {
			return 0, err
		}
		res[i] = r
		return time.Since(start).Seconds(), nil
	}
	for round := 0; round < measureRounds; round++ {
		for i := range specs {
			ws, err := timeCell(specs, i, seq)
			if err != nil {
				return SweepBench{}, err
			}
			wa, err := timeCell(audited, i, audres)
			if err != nil {
				return SweepBench{}, err
			}
			wm, err := timeCell(sampled, i, metres)
			if err != nil {
				return SweepBench{}, err
			}
			wc, err := timeCellArmed(i, canres)
			if err != nil {
				return SweepBench{}, err
			}
			// Each pass keeps its own per-cell minimum across rounds.
			// Selecting the whole tuple by the fastest plain cell (the
			// previous scheme) anchored the ratio's denominator at its
			// luckiest sample while the numerators stayed typical, which
			// read as a consistent ~2-4% phantom overhead on every
			// observational pass; independent minima estimate each
			// pass's true floor, and the cells are still timed back to
			// back so all four floors come from the same clock phase.
			if round == 0 || ws < seqW[i] {
				seqW[i] = ws
			}
			if round == 0 || wa < audW[i] {
				audW[i] = wa
			}
			if round == 0 || wm < metW[i] {
				metW[i] = wm
			}
			if round == 0 || wc < canW[i] {
				canW[i] = wc
			}
		}
		start := time.Now()
		p, errs := RunSpecs(context.Background(), specs, jobs, nil, nil)
		if err := FirstErr(specs, errs); err != nil {
			return SweepBench{}, err
		}
		if w := time.Since(start).Seconds(); round == 0 || w < wallPar {
			par, wallPar = p, w
		}
	}
	sum := func(ws []float64) float64 {
		var t float64
		for _, w := range ws {
			t += w
		}
		return t
	}
	wallSeq := sum(seqW)
	wallAudit := sum(audW)
	wallMetrics := sum(metW)
	wallCancel := sum(canW)

	var b SweepBench
	b.Cells = len(specs)
	b.Jobs = jobs
	b.GOMAXPROCS = runtime.GOMAXPROCS(0)
	for i := range seq {
		if par[i].Events != seq[i].Events || par[i].Throughput != seq[i].Throughput {
			return b, fmt.Errorf("exp: cell %d diverged between -jobs 1 and -jobs %d (%d vs %d events)",
				i, jobs, seq[i].Events, par[i].Events)
		}
		if audres[i].Events != seq[i].Events || audres[i].Throughput != seq[i].Throughput {
			return b, fmt.Errorf("exp: cell %d diverged under -audit (%d vs %d events)",
				i, seq[i].Events, audres[i].Events)
		}
		if metres[i].Throughput != seq[i].Throughput || metres[i].Power != seq[i].Power {
			return b, fmt.Errorf("exp: cell %d diverged under -metrics (thr %v vs %v)",
				i, seq[i].Throughput, metres[i].Throughput)
		}
		// The cancellation check is pure observation — no kernel events,
		// no model state — so the armed run must reproduce the plain one
		// exactly.
		if canres[i].Events != seq[i].Events || canres[i].Throughput != seq[i].Throughput {
			return b, fmt.Errorf("exp: cell %d diverged under an armed cancel check (%d vs %d events)",
				i, seq[i].Events, canres[i].Events)
		}
		b.Events += seq[i].Events
	}
	b.WallSeqSec = wallSeq
	b.WallParSec = wallPar
	b.WallAuditSec = wallAudit
	b.WallMetricsSec = wallMetrics
	b.WallCancelSec = wallCancel
	if wallSeq > 0 {
		b.AuditOverhead = wallAudit/wallSeq - 1
		b.MetricsOverhead = wallMetrics/wallSeq - 1
		b.CancelOverhead = wallCancel/wallSeq - 1
	}
	if wallSeq > 0 {
		b.EventsPerSec.Seq = float64(b.Events) / wallSeq
	}
	if wallPar > 0 {
		b.EventsPerSec.Par = float64(b.Events) / wallPar
		b.Speedup = wallSeq / wallPar
	}
	return b, nil
}

// WriteJSON writes the record to path, indented for diffability.
func (b SweepBench) WriteJSON(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
