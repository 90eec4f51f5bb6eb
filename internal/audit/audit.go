// Package audit is the runtime invariant auditor: a pluggable, sampled
// self-check layer that components (kernel, network, links, DRAM vaults,
// power accounting) hook so conservation, bound, lattice and monotonicity
// invariants are enforced during every run — not just in tests.
//
// The auditor is strictly observational. It never schedules kernel
// events and never mutates component state, so an audited run executes
// the exact same event sequence as an unaudited one: enabling or
// disabling the auditor (or changing its sampling rate) cannot change a
// simulation result, only detect that one is wrong.
//
// Two kinds of checks hang off an Auditor:
//
//   - sampled per-observation checks: hot paths call Sample() and run
//     their (cheap) assertions only when it returns true — every
//     SampleEvery-th observation, so full-rate property tests set 1 and
//     production sweeps amortize the cost;
//   - registered sweeps: whole-component walks (queue bounds, energy
//     monotonicity, heap order) that the auditor runs periodically —
//     every SweepEvery observations — and that the harness runs
//     explicitly at the warmup boundary and at the end of the run.
//
// A failed check produces a Violation (component, rule, sim time,
// counters snapshot). Violations accumulate; the harness converts a
// non-zero count into a structured *Error that fails the cell gracefully
// instead of corrupting results or panicking the process.
package audit

import (
	"fmt"
	"strings"

	"memnet/internal/sim"
)

// Violation is one detected invariant breach.
type Violation struct {
	// Component identifies the checked entity, e.g. "link[5]", "dram[2]",
	// "network", "kernel", "power".
	Component string
	// Rule names the invariant, e.g. "state-lattice", "vault-queue-bound".
	Rule string
	// Time is the simulated time of detection.
	Time sim.Time
	// Detail is a human-readable snapshot of the counters involved.
	Detail string
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("%s: %s at %s: %s", v.Component, v.Rule, v.Time, v.Detail)
}

// Error is the structured outcome of an audited run that detected
// violations. The harness returns it from the run so the cell fails
// gracefully with the retained diagnostics attached.
type Error struct {
	// Total counts every violation, including ones past the retention
	// limit.
	Total uint64
	// Violations holds the retained diagnostics (bounded by Config.Limit).
	Violations []Violation
}

// Error implements the error interface.
func (e *Error) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "audit: %d invariant violation(s)", e.Total)
	for _, v := range e.Violations {
		b.WriteString("\n  ")
		b.WriteString(v.String())
	}
	if n := int(e.Total) - len(e.Violations); n > 0 {
		fmt.Fprintf(&b, "\n  ... and %d more (retention limit)", n)
	}
	return b.String()
}

// Defaults for Config's zero values.
const (
	// DefaultSampleEvery is the production sampling stride: per-observation
	// checks run on every 64th observation, keeping the auditor's hot-path
	// cost to a counter increment on the other 63.
	DefaultSampleEvery = 64
	// DefaultSweepEvery is how many observations pass between periodic
	// whole-component sweeps.
	DefaultSweepEvery = 1 << 16
	// DefaultLimit bounds retained violations; the total keeps counting.
	DefaultLimit = 16
)

// Config tunes an Auditor. The zero value selects the defaults above.
type Config struct {
	// SampleEvery is the per-observation check stride (1 = every
	// observation, the full-rate mode property tests use).
	SampleEvery uint64
	// SweepEvery is the observation stride between periodic sweeps.
	SweepEvery uint64
	// Limit bounds the retained Violation diagnostics.
	Limit int
}

// Sweep is a registered whole-component invariant walk. It must only read
// component state; report records a violation.
type Sweep func(now sim.Time, report func(component, rule, detail string))

// Auditor accumulates observations, runs checks, and retains violations.
// All methods are safe on a nil *Auditor (they do nothing and Sample
// reports false), so components guard their hooks with a plain field.
type Auditor struct {
	sampleEvery uint64
	sweepEvery  uint64
	limit       int
	clock       func() sim.Time

	obs uint64
	// sampleLeft and sweepLeft count down to the next sampled
	// observation and the next periodic sweep: obs%sampleEvery and
	// obs%sweepEvery without a 64-bit division on every call.
	sampleLeft uint64
	sweepLeft  uint64

	count      uint64
	violations []Violation
	sweeps     []Sweep
	inSweep    bool
}

// New builds an auditor; clock supplies the simulated time stamped on
// violations (typically Kernel.Now).
func New(cfg Config, clock func() sim.Time) *Auditor {
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = DefaultSampleEvery
	}
	if cfg.SweepEvery == 0 {
		cfg.SweepEvery = DefaultSweepEvery
	}
	if cfg.Limit <= 0 {
		cfg.Limit = DefaultLimit
	}
	return &Auditor{
		sampleEvery: cfg.SampleEvery,
		sweepEvery:  cfg.SweepEvery,
		sampleLeft:  cfg.SampleEvery,
		sweepLeft:   cfg.SweepEvery,
		limit:       cfg.Limit,
		clock:       clock,
	}
}

// Sample counts one observation and reports whether its per-observation
// checks should run. Every SweepEvery observations it also runs the
// registered sweeps, so long runs are audited throughout, not only at
// interval boundaries.
func (a *Auditor) Sample() bool {
	if a == nil {
		return false
	}
	a.obs++
	// sampleLeft == sampleEvery exactly when obs%sampleEvery == 0. It is
	// read after the sweeps so a Sample nested inside one counts, as it
	// would in obs.
	if a.sampleLeft--; a.sampleLeft == 0 {
		a.sampleLeft = a.sampleEvery
	}
	if a.sweepLeft--; a.sweepLeft == 0 {
		a.sweepLeft = a.sweepEvery
		a.RunSweeps()
	}
	return a.sampleLeft == a.sampleEvery
}

// Observations returns the number of Sample calls so far.
func (a *Auditor) Observations() uint64 {
	if a == nil {
		return 0
	}
	return a.obs
}

// Reportf records a violation at the current simulated time. The detail
// is formatted lazily — only violations pay for it.
func (a *Auditor) Reportf(component, rule, format string, args ...any) {
	if a == nil {
		return
	}
	a.count++
	if len(a.violations) < a.limit {
		a.violations = append(a.violations, Violation{
			Component: component,
			Rule:      rule,
			Time:      a.clock(),
			Detail:    fmt.Sprintf(format, args...),
		})
	}
}

// RegisterSweep adds a whole-component walk to the periodic sweep set.
func (a *Auditor) RegisterSweep(s Sweep) {
	if a == nil {
		return
	}
	a.sweeps = append(a.sweeps, s)
}

// RunSweeps runs every registered sweep now. The harness calls it at the
// warmup boundary and at the end of the run; Sample triggers it
// periodically in between. Reentrant calls (a sweep whose reads trip
// another Sample) are ignored.
func (a *Auditor) RunSweeps() {
	if a == nil || a.inSweep {
		return
	}
	a.inSweep = true
	defer func() { a.inSweep = false }()
	now := a.clock()
	report := func(component, rule, detail string) {
		a.count++
		if len(a.violations) < a.limit {
			a.violations = append(a.violations, Violation{
				Component: component, Rule: rule, Time: now, Detail: detail,
			})
		}
	}
	for _, s := range a.sweeps {
		s(now, report)
	}
}

// Count returns the total number of violations detected.
func (a *Auditor) Count() uint64 {
	if a == nil {
		return 0
	}
	return a.count
}

// Violations returns the retained diagnostics.
func (a *Auditor) Violations() []Violation {
	if a == nil {
		return nil
	}
	return a.violations
}

// Err returns nil for a clean run, or a structured *Error carrying the
// count and retained violations.
func (a *Auditor) Err() error {
	if a == nil || a.count == 0 {
		return nil
	}
	return &Error{Total: a.count, Violations: append([]Violation(nil), a.violations...)}
}
