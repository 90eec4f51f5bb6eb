// Package exp is the experiment harness: it builds a network + workload +
// policy from a declarative spec, runs the simulation with a warmup, and
// measures the quantities the paper's tables and figures report. Figure
// generators (figures.go) compose sweeps of these runs into the same
// rows/series the paper plots.
package exp

import (
	"context"
	"fmt"
	"runtime/debug"

	"memnet/internal/audit"
	"memnet/internal/core"
	"memnet/internal/dram"
	"memnet/internal/durable"
	"memnet/internal/link"
	"memnet/internal/metrics"
	"memnet/internal/network"
	"memnet/internal/power"
	"memnet/internal/sim"
	"memnet/internal/stats"
	"memnet/internal/topology"
	"memnet/internal/workload"
)

// NetworkSize selects the paper's two studies: small maps 4 GB of address
// space per module, big maps 1 GB (§III-C).
type NetworkSize int

const (
	// Small is the 4 GB/module study (avg 5 modules).
	Small NetworkSize = iota
	// Big is the 1 GB/module study (avg ~18 modules).
	Big
)

// String implements fmt.Stringer.
func (s NetworkSize) String() string {
	if s == Small {
		return "small"
	}
	return "big"
}

// ChunkGB returns the per-module address chunk.
func (s NetworkSize) ChunkGB() int {
	if s == Small {
		return 4
	}
	return 1
}

// Mech bundles a bandwidth mechanism with the ROO flag, named like the
// paper's series (FP, VWL, ROO, VWL+ROO, DVFS, DVFS+ROO).
type Mech struct {
	BW  link.Mechanism
	ROO bool
}

// The mechanism sets the paper evaluates.
var (
	MechFP      = Mech{link.MechNone, false}
	MechVWL     = Mech{link.MechVWL, false}
	MechROO     = Mech{link.MechNone, true}
	MechVWLROO  = Mech{link.MechVWL, true}
	MechDVFS    = Mech{link.MechDVFS, false}
	MechDVFSROO = Mech{link.MechDVFS, true}
)

// String implements fmt.Stringer.
func (m Mech) String() string {
	switch {
	case m.BW == link.MechNone && !m.ROO:
		return "FP"
	case m.BW == link.MechNone && m.ROO:
		return "ROO"
	case m.ROO:
		return m.BW.String() + "+ROO"
	default:
		return m.BW.String()
	}
}

// Spec declares one simulation run.
type Spec struct {
	Workload *workload.Profile
	Topology topology.Kind
	Size     NetworkSize
	Mech     Mech
	Policy   core.PolicyKind
	Alpha    float64
	Wakeup   sim.Duration // 0 = 14 ns default
	SimTime  sim.Duration // measured interval (after warmup)
	Warmup   sim.Duration
	// Interleave switches to page-interleaved mapping (§VII-A pairing
	// for the static baseline).
	Interleave bool
	// CollectLinkHours enables the Fig. 13 histogram.
	CollectLinkHours bool
	// SeedSalt perturbs the workload seed (0 for the paper runs; used by
	// robustness tests).
	SeedSalt uint64
	// AuditEvery arms the runtime invariant auditor with this sampling
	// stride (1 = check every observation, the full-rate property-test
	// mode). Zero and negative leave the run unaudited; Settings.Apply
	// fills zero from the run-wide stride. Detected violations fail the
	// run with a structured *audit.Error. The auditor is observational —
	// it cannot change a result — so AuditEvery is the one field Key()
	// leaves out (TestKeyCoversEveryField holds it to that): audited and
	// unaudited runs share cache and store entries.
	AuditEvery int
	// DRAM overrides every module's DRAM configuration (nil = Table I,
	// dram.DefaultConfig). The calibration sensitivity sweep perturbs one
	// timing parameter at a time through it.
	DRAM *dram.Config
	// PeakWatts overrides the [12] high-radix peak power (0 = the
	// published 13.4 W; low radix stays half the high-radix value).
	PeakWatts float64
	// MetricsInterval arms the epoch-resolution metrics sampler over the
	// measured interval with this sampling period (0 = disabled). It
	// must give between 1 and metrics.MaxTicks samples over SimTime. The
	// sampler only reads state and schedules no event, so every other
	// Result field, Events included, is unchanged; Result.Metrics is
	// not, so unlike AuditEvery it is part of Key().
	MetricsInterval sim.Duration
}

// Key is the spec's one identity: the memo cache and the result store
// name a cell by it. It formats the resolved spec with every field but
// AuditEvery, so two spellings of one run (a zero default and its
// value) share a key and any two different runs do not. The footprint
// rides along with the workload name because studies that perturb a
// named profile (e.g. the scaling study's truncated is.D) must not
// collide with the original. The metrics token was spelled "m=" while
// a kernel event sampled the run and Result.Events counted its ticks;
// the new spelling makes entries stored then miss.
func (s Spec) Key() string {
	s = s.resolved()
	return fmt.Sprintf("%s/%dGB|%s|%s|%s|%s|%g|%d|%d|%d|%v|%v|%d|metrics=%d|dram=%s|pw=%g",
		s.Workload.Name, s.Workload.FootprintGB, s.Topology, s.Size, s.Mech, s.Policy, s.Alpha,
		s.Wakeup, s.SimTime, s.Warmup, s.Interleave, s.CollectLinkHours, s.SeedSalt,
		s.MetricsInterval, s.DRAM.Fingerprint(), s.PeakWatts)
}

// resolved fills every field whose zero value stands for a default the
// build applies, and nothing else: a field the model ignores (α under
// PolicyNone, Wakeup without ROO) keeps its value. Build, Key and
// canonicalResult all resolve, so Result.Spec states exactly what ran.
func (s Spec) resolved() Spec {
	if s.SimTime == 0 {
		s.SimTime = DefaultSimTime
	}
	if s.Wakeup == 0 {
		s.Wakeup = link.WakeupDefault
	}
	if s.DRAM == nil {
		cfg := dram.DefaultConfig()
		s.DRAM = &cfg
	}
	if s.PeakWatts == 0 {
		s.PeakWatts = power.HighRadixPeakWatts
	}
	return s
}

// seed derives the workload seed. It deliberately excludes mechanism,
// policy and α so that comparisons against the FP baseline are paired
// (same arrival process), as in the paper's relative measurements.
func (s Spec) seed() uint64 {
	h := uint64(1469598103934665603)
	mix := func(str string) {
		for i := 0; i < len(str); i++ {
			h ^= uint64(str[i])
			h *= 1099511628211
		}
	}
	mix(s.Workload.Name)
	mix(s.Topology.String())
	mix(s.Size.String())
	h ^= s.SeedSalt
	return h
}

// Result carries every measurement the figures need.
type Result struct {
	Spec    Spec
	Modules int
	// Power is the average power over the measured interval for the
	// whole network; PerHMC divides by the module count (Fig. 5/11).
	Power  power.Breakdown
	PerHMC power.Breakdown
	// Throughput is completed accesses/s (the paper's performance
	// metric for relative comparisons).
	Throughput float64
	// ChannelUtil is the busier direction of the processor link;
	// LinkUtil the mean over all links (Fig. 9).
	ChannelUtil float64
	LinkUtil    float64
	// LinksPerAccess is Fig. 6's metric.
	LinksPerAccess float64
	AvgReadLatency sim.Duration
	// Read-latency tail over the measured interval.
	P50, P95, P99 sim.Duration
	Hist          *stats.LinkHourHist
	Violations    uint64
	Granted       uint64
	Events        uint64
	Slots         int
	// Metrics is the frozen time-series of a metrics-armed run (nil when
	// Spec.MetricsInterval is zero). It covers the measured interval:
	// sampling starts at the warmup boundary.
	Metrics *metrics.Dump
}

// IdleIOFraction returns idle I/O power over total network power (Fig. 8).
func (r Result) IdleIOFraction() float64 {
	t := r.Power.Total()
	if t == 0 {
		return 0
	}
	return r.Power.IdleIO / t
}

// DefaultSimTime and DefaultWarmup balance fidelity against the harness
// running every paper sweep on one CPU; the paper's 10 ms windows are
// available via the -simtime flag of cmd/experiments.
var (
	DefaultSimTime = 400 * sim.Microsecond
	DefaultWarmup  = 100 * sim.Microsecond
)

// Budget bounds one run's resource consumption beyond what the spec
// itself implies. The zero Budget is unlimited.
type Budget struct {
	// MaxEvents aborts the run once the kernel has processed this many
	// events (0 = unlimited). The overrun is at most one check interval.
	MaxEvents uint64
	// CheckEvery is the cancellation/budget check stride in kernel events
	// (0 = sim.DefaultCheckEvery). Smaller strides abort faster at a
	// slightly higher per-event cost.
	CheckEvery uint64
}

// BudgetError reports a run aborted for exceeding its event budget.
type BudgetError struct {
	Events    uint64
	MaxEvents uint64
}

// Error implements error.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("event budget exhausted: %d events processed (budget %d)", e.Events, e.MaxEvents)
}

// Run executes one spec.
func Run(spec Spec) (Result, error) { return RunBudgeted(context.Background(), spec, Budget{}) }

// RunCtx executes one spec under ctx: cancellation (client disconnect,
// signal, deadline) stops the simulation within one kernel check
// interval and returns ctx's error, so an abandoned run stops burning
// CPU almost immediately instead of completing into the void.
func RunCtx(ctx context.Context, spec Spec) (Result, error) {
	return RunBudgeted(ctx, spec, Budget{})
}

// RunBudgeted is RunCtx with a resource budget enforced inside the
// kernel's run loop. It measures the simulation Build wires: warmup,
// then the measured interval between two snapshots. An aborted run
// returns an error wrapping ctx.Err() or a *BudgetError;
// errors.Is(err, context.Canceled) therefore identifies cancellations
// through every layer above. A panic anywhere under the run comes back
// as a *PanicError, so a corrupted cell fails alone instead of crashing
// the sweep or the daemon.
func RunBudgeted(ctx context.Context, spec Spec, budget Budget) (res Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: string(debug.Stack())}
		}
	}()
	return runImpl(ctx, spec, budget)
}

// PanicError is a panic recovered by RunBudgeted, preserving the panic
// value and the goroutine stack at the point of recovery.
type PanicError struct {
	Value any
	Stack string
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("cell panicked: %v\n%s", e.Value, e.Stack)
}

// runImpl is swapped by tests to inject panicking or slow cells; a
// replacement that simulates must call runBudgeted, not Run.
var runImpl = runBudgeted

// runBudgeted is RunBudgeted without the panic containment.
func runBudgeted(ctx context.Context, spec Spec, budget Budget) (Result, error) {
	s, err := Build(spec)
	if err != nil {
		return Result{}, err
	}
	return s.Measure(ctx, budget)
}

// Measure runs a freshly built simulation and measures it: warmup, then
// the measured interval between two snapshots, sampled by the metrics
// registry when the spec arms one. ctx and budget act as in
// RunBudgeted; panics are not contained.
func (s *Sim) Measure(ctx context.Context, budget Budget) (Result, error) {
	spec, kernel, net, aud := s.Spec, s.Kernel, s.Net, s.audit
	// Arm the cooperative check only when there is something to enforce:
	// a cancelable context (ctx.Done() non-nil) or an event budget. The
	// unarmed hot loop pays a single predictable branch, so plain Run
	// callers are unaffected (bench/'s sim.cancel_overhead row prices the
	// armed case, and make overhead holds it to 1%).
	if ctx.Done() != nil || budget.MaxEvents > 0 {
		kernel.SetCheck(budget.CheckEvery, func() error {
			if err := ctx.Err(); err != nil {
				return err
			}
			if budget.MaxEvents > 0 && kernel.Processed() >= budget.MaxEvents {
				return &BudgetError{Events: kernel.Processed(), MaxEvents: budget.MaxEvents}
			}
			return nil
		})
	}

	kernel.Run(spec.Warmup)
	if err := kernel.Err(); err != nil {
		return Result{}, fmt.Errorf("exp: %s: aborted after %d events: %w", spec.Key(), kernel.Processed(), err)
	}
	snap0 := net.TakeSnapshot()
	net.LatencyHist().Reset()
	aud.RunSweeps() // full pass at the warmup boundary (nil-safe)
	// Metrics cover the measured interval only; sampling from after the
	// latency-histogram reset keeps its cumulative pulls monotone.
	s.metrics.Run(kernel, spec.Warmup+spec.SimTime)
	if err := kernel.Err(); err != nil {
		return Result{}, fmt.Errorf("exp: %s: aborted after %d events: %w", spec.Key(), kernel.Processed(), err)
	}
	snap1 := net.TakeSnapshot()

	nModules := net.Topo.N()
	res := Result{
		Spec:           spec,
		Modules:        nModules,
		Power:          network.IntervalPower(snap0, snap1),
		Throughput:     network.Throughput(snap0, snap1),
		ChannelUtil:    network.ChannelUtilization(snap0, snap1),
		LinkUtil:       network.AvgLinkUtilization(snap0, snap1),
		LinksPerAccess: network.LinksPerAccess(snap0, snap1),
		AvgReadLatency: network.AvgReadLatency(snap0, snap1),
		P50:            net.LatencyHist().Percentile(0.50),
		P95:            net.LatencyHist().Percentile(0.95),
		P99:            net.LatencyHist().Percentile(0.99),
		Hist:           s.Manager.Hist,
		Events:         kernel.Processed(),
		Slots:          s.FrontEnd.Slots(),
	}
	res.PerHMC = res.Power.Scale(1 / float64(nModules))
	res.Violations, res.Granted = s.Manager.Violations()
	res.Metrics = s.metrics.Dump() // nil when metrics are disabled
	if aud != nil {
		// End-of-run audit: a final full sweep over every registered
		// component, then the interval-level energy checks. These read the
		// snapshots (already integrated) rather than live accumulators, so
		// they cannot perturb the accounting they validate.
		aud.RunSweeps()
		if snap1.Energy.Total() < snap0.Energy.Total() {
			aud.Reportf("power", "energy-monotone",
				"interval energy decreased: %g J -> %g J", snap0.Energy.Total(), snap1.Energy.Total())
		}
		if err := snap1.Energy.Check(); err != nil {
			aud.Reportf("power", "cumulative-energy", "%v", err)
		}
		if err := res.Power.Check(); err != nil {
			aud.Reportf("power", "interval-power", "%v", err)
		}
		if err := aud.Err(); err != nil {
			return Result{}, fmt.Errorf("exp: %s: %w", spec.Key(), err)
		}
	}
	return res, nil
}

// Settings are the run-wide settings laid over every spec of a sweep or
// batch. Runner embeds them; memnetsim and memnetd call Apply directly,
// so every entry path fills a spec the same way.
type Settings struct {
	SimTime, Warmup sim.Duration
	// Audit is the auditor's stride in Spec.AuditEvery's encoding: 0
	// leaves the spec alone (unaudited under Run), negative is off,
	// positive the stride. NewRunner sets audit.DefaultSampleEvery.
	Audit int
	// Metrics is the epoch-resolution sampling interval (0 = off).
	Metrics sim.Duration
}

// Validate is Spec.Validate for the settings alone: the range check a
// sweep can run once, up front, since every cell takes them. A failure
// is a *FieldError.
func (st Settings) Validate() error {
	return Spec{SimTime: st.SimTime, Warmup: st.Warmup, MetricsInterval: st.Metrics}.validate()
}

// Apply fills every field spec leaves unset (zero) from the settings;
// the range check then judges the result. Keys are computed on the
// filled spec, so every path that keys a runner's cells — live runs,
// the collect pass and Prefetch — goes through Apply.
func (st Settings) Apply(spec Spec) Spec {
	if spec.SimTime == 0 {
		spec.SimTime = st.SimTime
	}
	if spec.Warmup == 0 {
		spec.Warmup = st.Warmup
	}
	if spec.AuditEvery == 0 {
		spec.AuditEvery = st.Audit
	}
	if spec.MetricsInterval == 0 {
		spec.MetricsInterval = st.Metrics
	}
	return spec
}

// Runner memoizes runs so figure generators can share FP baselines, and
// lays its Settings over every spec it runs.
type Runner struct {
	Settings
	// Ctx, when non-nil, threads end-to-end cancellation through every
	// cell the runner executes (locally or via the pool): canceling it
	// aborts in-flight simulations within one kernel check interval and
	// fails the remaining cells with the context's error. Nil means
	// context.Background(): every cell runs to completion.
	Ctx context.Context
	// Jobs is the sweep executor's worker count: 0 means
	// runtime.GOMAXPROCS(0), 1 runs one cell at a time. Any value
	// produces byte-identical figure output and store entries (see
	// sweep_test.go); only wall-clock time changes.
	Jobs int
	// Workloads restricts figure sweeps to a subset (nil = all 14 paper
	// workloads). Tests use it to exercise the generators cheaply.
	Workloads []*workload.Profile
	// Progress, if non-nil, receives one line per fresh (non-cached) run,
	// always in deterministic sweep order.
	Progress func(string)
	cache    map[string]Result

	// metricsLog collects each metrics-armed cell's frozen time-series,
	// exactly once per distinct cell, in deterministic first-use order
	// (identical at any Jobs value); MetricsEntries reads it back.
	metricsLog []metrics.Entry

	// store, when attached, restores every cell it holds and keeps every
	// fresh result, so an interrupted sweep resumes without
	// recomputation (see execute).
	store *durable.Store
	// failures records cells that errored or panicked; the sweep carries
	// on with placeholder results and the caller decides how loudly to
	// fail (see Failures).
	failures []CellFailure

	// collecting flips Run into cell-recording mode: instead of
	// simulating, Run enqueues the spec and returns a placeholder result.
	// Generate's first pass uses it to discover a generator's sweep cells
	// before fanning them across the worker pool (see sweep.go).
	collecting bool
	pending    []Spec
	pendingKey map[string]bool
}

// NewRunner returns a runner with the package defaults: the default
// measured interval and warmup, audited at audit.DefaultSampleEvery.
func NewRunner() *Runner {
	return &Runner{
		Settings: Settings{SimTime: DefaultSimTime, Warmup: DefaultWarmup, Audit: audit.DefaultSampleEvery},
		cache:    map[string]Result{},
	}
}

// recordMetrics logs a committed cell's time-series for MetricsEntries.
// commit calls it exactly once per distinct cell, restored or fresh, in
// the generator's first-use order, which is what makes the exported
// metrics identical at any Jobs value and across a resume.
func (r *Runner) recordMetrics(key string, res Result) {
	if res.Metrics != nil {
		r.metricsLog = append(r.metricsLog, metrics.Entry{Key: key, Dump: res.Metrics})
	}
}

// MetricsEntries returns the frozen time-series of every metrics-armed
// cell committed so far, in deterministic first-use order.
func (r *Runner) MetricsEntries() []metrics.Entry { return r.metricsLog }

// Run executes (or recalls) a spec with the runner's time settings. A
// miss outside the collect pass is a one-cell Prefetch, so restore,
// storing and failure recording have a single code path.
func (r *Runner) Run(spec Spec) Result {
	spec = r.Apply(spec)
	k := spec.Key()
	if res, ok := r.cache[k]; ok {
		return res
	}
	if r.collecting {
		if !r.pendingKey[k] {
			r.pendingKey[k] = true
			r.pending = append(r.pending, spec)
		}
		// Placeholder carrying just the fields generators dereference
		// while rendering; the collect pass's output is discarded.
		return Result{Spec: spec, Hist: &stats.LinkHourHist{}}
	}
	r.Prefetch([]Spec{spec})
	return r.cache[k]
}

// ctx resolves the runner's context.
func (r *Runner) ctx() context.Context {
	if r.Ctx != nil {
		return r.Ctx
	}
	return context.Background()
}

// CellFailure is one sweep cell that could not produce a result.
type CellFailure struct {
	Key string
	Err error
}

// Failures returns every cell failure recorded so far, in the order the
// cells ran.
func (r *Runner) Failures() []CellFailure { return r.failures }

// AttachStore directs the runner to restore every cell s holds instead
// of simulating it, and to store every fresh result as its cell
// completes.
func (r *Runner) AttachStore(s *durable.Store) { r.store = s }

// canonicalResult aligns a result restored from the store with the
// caller's canonical spec. The marshaled Spec is always replaced: JSON
// does not round-trip every Spec field bit-exactly, and downstream
// baseline lookups re-derive keys from res.Spec. Every restore goes
// through it (see restore), so a resumed sweep renders byte-identically
// to an uninterrupted one.
func canonicalResult(res Result, spec Spec) Result {
	res.Spec = spec.resolved()
	if res.Hist == nil {
		res.Hist = &stats.LinkHourHist{}
	}
	return res
}

// FPBaseline returns the paired full-power run for spec.
func (r *Runner) FPBaseline(spec Spec) Result {
	spec.Mech = MechFP
	spec.Policy = core.PolicyNone
	spec.Alpha = 0
	spec.Wakeup = 0
	spec.CollectLinkHours = false
	spec.Interleave = false
	return r.Run(spec)
}

// PerfDegradation returns the throughput loss of res vs the paired FP
// baseline (positive = slower).
func (r *Runner) PerfDegradation(res Result) float64 {
	fp := r.FPBaseline(res.Spec)
	if fp.Throughput == 0 {
		return 0
	}
	return 1 - res.Throughput/fp.Throughput
}
