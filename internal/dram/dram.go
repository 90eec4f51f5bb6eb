// Package dram models the DRAM arrays inside one HMC: 32 vaults, each with
// a small bank pool behind a 32-bit 2 Gbps TSV data bus, operated with a
// close-page policy and line-interleaved vault mapping (Table I of the
// paper). The nominal read latency works out to tRCD + tCL + burst =
// 11 + 11 + 8 = 30 ns, the figure the paper's management math uses.
package dram

import (
	"fmt"

	"memnet/internal/audit"
	"memnet/internal/sim"
)

// Config holds the DRAM array parameters (Table I).
type Config struct {
	// Vaults per HMC.
	Vaults int
	// Banks per vault; activates to distinct banks can overlap subject
	// to TRRD and data-bus serialization.
	Banks int
	// QueueDepth is the per-vault request buffer (Table I: 16 entries).
	QueueDepth int
	// LineBytes is the access granularity.
	LineBytes int
	// BusBits is the vault data bus width (x32) and BusGbps its rate.
	BusBits int
	BusGbps float64
	// Timing parameters.
	TCL, TRCD, TRAS, TRP, TRRD, TWR sim.Duration
	// Refresh: every TREFI each vault performs an all-bank refresh that
	// occupies it for TRFC. TREFI = 0 disables refresh.
	TREFI, TRFC sim.Duration
}

// DefaultConfig returns Table I's parameters.
func DefaultConfig() Config {
	return Config{
		Vaults:     32,
		Banks:      8,
		QueueDepth: 16,
		LineBytes:  64,
		BusBits:    32,
		BusGbps:    2.0,
		TCL:        11 * sim.Nanosecond,
		TRCD:       11 * sim.Nanosecond,
		TRAS:       22 * sim.Nanosecond,
		TRP:        11 * sim.Nanosecond,
		TRRD:       5 * sim.Nanosecond,
		TWR:        12 * sim.Nanosecond,
		TREFI:      7800 * sim.Nanosecond,
		TRFC:       260 * sim.Nanosecond,
	}
}

// BurstTime is how long one line occupies the vault data bus.
func (c Config) BurstTime() sim.Duration {
	bits := float64(c.LineBytes * 8)
	ns := bits / (float64(c.BusBits) * c.BusGbps)
	return sim.FromNanos(ns)
}

// NominalReadLatency is the unloaded read latency (tRCD + tCL + burst).
func (c Config) NominalReadLatency() sim.Duration {
	return c.TRCD + c.TCL + c.BurstTime()
}

// TRC is the close-page bank cycle time (tRAS + tRP).
func (c Config) TRC() sim.Duration { return c.TRAS + c.TRP }

// PeakBandwidthBytesPerSec is the aggregate vault data-bus bandwidth of
// the HMC, used to scale DRAM dynamic power.
func (c Config) PeakBandwidthBytesPerSec() float64 {
	return float64(c.Vaults) * float64(c.BusBits) * c.BusGbps * 1e9 / 8
}

// ScalableParams lists the parameter names Scaled accepts, in a stable
// order — the axes the calibration sensitivity sweep perturbs.
func ScalableParams() []string {
	return []string{"tCL", "tRCD", "tRAS", "tRP", "tRRD", "tWR", "tREFI", "tRFC", "busGbps"}
}

// Scaled returns a copy of c with one named parameter multiplied by
// factor (timings round to the nearest picosecond). It rejects unknown
// names and non-positive factors so a sweep axis cannot silently perturb
// nothing.
func (c Config) Scaled(param string, factor float64) (Config, error) {
	if factor <= 0 {
		return Config{}, fmt.Errorf("dram: scale factor must be positive, got %g", factor)
	}
	scale := func(d sim.Duration) sim.Duration {
		return sim.Duration(float64(d)*factor + 0.5)
	}
	switch param {
	case "tCL":
		c.TCL = scale(c.TCL)
	case "tRCD":
		c.TRCD = scale(c.TRCD)
	case "tRAS":
		c.TRAS = scale(c.TRAS)
	case "tRP":
		c.TRP = scale(c.TRP)
	case "tRRD":
		c.TRRD = scale(c.TRRD)
	case "tWR":
		c.TWR = scale(c.TWR)
	case "tREFI":
		c.TREFI = scale(c.TREFI)
	case "tRFC":
		c.TRFC = scale(c.TRFC)
	case "busGbps":
		c.BusGbps *= factor
	default:
		return Config{}, fmt.Errorf("dram: unknown scalable parameter %q (have %v)", param, ScalableParams())
	}
	return c, c.Validate()
}

// Fingerprint is a compact stable identity string covering every field,
// used by the experiment harness to key memoization and the result store
// when a spec carries a DRAM override.
func (c Config) Fingerprint() string {
	return fmt.Sprintf("v%d.b%d.q%d.l%d.w%d.g%g.cl%d.rcd%d.ras%d.rp%d.rrd%d.wr%d.refi%d.rfc%d",
		c.Vaults, c.Banks, c.QueueDepth, c.LineBytes, c.BusBits, c.BusGbps,
		c.TCL, c.TRCD, c.TRAS, c.TRP, c.TRRD, c.TWR, c.TREFI, c.TRFC)
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Vaults <= 0:
		return fmt.Errorf("dram: vaults must be positive, got %d", c.Vaults)
	case c.Banks <= 0:
		return fmt.Errorf("dram: banks must be positive, got %d", c.Banks)
	case c.QueueDepth <= 0:
		return fmt.Errorf("dram: queue depth must be positive, got %d", c.QueueDepth)
	case c.LineBytes <= 0 || c.BusBits <= 0 || c.BusGbps <= 0:
		return fmt.Errorf("dram: line/bus parameters must be positive")
	case c.TCL <= 0 || c.TRCD <= 0 || c.TRAS <= 0 || c.TRP <= 0 || c.TRRD < 0 || c.TWR < 0:
		return fmt.Errorf("dram: timing parameters must be positive")
	case c.TREFI < 0 || c.TRFC < 0 || (c.TREFI > 0 && c.TRFC > c.TREFI):
		return fmt.Errorf("dram: invalid refresh parameters tREFI=%v tRFC=%v", c.TREFI, c.TRFC)
	}
	return nil
}

// Completion receives an access-completion callback. Using an interface
// instead of a func lets callers hand the DRAM a reusable completion
// object, so the steady-state access path schedules without allocating.
type Completion interface{ AccessDone() }

// funcDone adapts a plain func to Completion for the convenience Access
// entry point (func values are pointer-shaped, so the conversion is free).
type funcDone func()

func (f funcDone) AccessDone() { f() }

// request is one queued vault access. Whether it is a read follows from
// its place in the queue (see vault.reads), and close page never reads
// the address, so nothing else is kept.
type request struct {
	done Completion
}

// vault serializes accesses through a bank pool and a shared data bus.
type vault struct {
	idx          int
	bankFree     []sim.Time // next time each bank can start an activate
	lastActivate sim.Time
	busFree      sim.Time
	// queue keeps reads ahead of writes, so queue[:reads] are the queued
	// reads and the rest are writes.
	queue []request
	reads int
	// inService is set while the vault's next-issue event is pending.
	inService bool
	// issueAt and issueSeq are the (time, seq) position reserved for the
	// next issue when the last queued request entered service: with the
	// queue empty that event would only clear inService, so it is filed
	// only if a request arrives before the kernel passes the position.
	// The zero position reads as passed.
	issueAt  sim.Time
	issueSeq uint64
	// issue is the vault's reusable next-issue event; the service chain
	// is strictly sequential, so at most one is ever pending.
	issue issueAction
}

// issueAction resumes a vault's service loop tRRD after an activate.
type issueAction struct {
	d *HMCDRAM
	v *vault
}

func (a *issueAction) Act() { a.d.serviceNext(a.v) }

// burstDoneAction is the pooled data-burst-complete event: it settles the
// outstanding-read count and fires the caller's completion. Bursts
// pipeline across banks and vaults, so these come from a free list.
type burstDoneAction struct {
	d      *HMCDRAM
	isRead bool
	done   Completion
}

func (a *burstDoneAction) Act() {
	d, isRead, done := a.d, a.isRead, a.done
	a.done = nil
	d.doneFree = append(d.doneFree, a)
	if isRead {
		d.outstandingReads--
		if d.outstandingReads < 0 {
			d.aud.Reportf(d.auditName, "outstanding-reads",
				"read completion drove outstanding reads to %d", d.outstandingReads)
		}
	}
	if done != nil {
		done.AccessDone()
	}
}

// Stats aggregates DRAM activity for power and verification.
type Stats struct {
	Reads, Writes    uint64
	BytesTransferred uint64
	QueueFullRejects uint64
	BusyTime         sim.Duration // data-bus occupancy across vaults
	RefreshStalls    uint64
}

// HMCDRAM is the DRAM stack of one module.
type HMCDRAM struct {
	cfg    Config
	kernel *sim.Kernel
	vaults []vault
	stats  Stats

	outstandingReads int
	doneFree         []*burstDoneAction
	// OnReadStart, if set, fires when a read access enters service —
	// the hook the proactive response-link wakeup ([22]) uses.
	OnReadStart func()

	// Runtime invariant auditing (nil = unaudited).
	aud       *audit.Auditor
	auditName string
	auditPrev Stats
}

// AttachAudit wires the runtime invariant auditor: vault queue insertions
// are sample-checked against QueueDepth, read completions assert the
// outstanding-read count stays non-negative, and a registered sweep walks
// every vault and the statistics counters. module names the component in
// violations. Purely observational.
func (d *HMCDRAM) AttachAudit(a *audit.Auditor, module int) {
	d.aud = a
	d.auditName = fmt.Sprintf("dram[%d]", module)
	d.auditPrev = d.stats
	a.RegisterSweep(d.auditSweep)
}

// auditSweep checks every vault's queue bound and the monotone/sign
// invariants of the accumulated statistics.
func (d *HMCDRAM) auditSweep(now sim.Time, report func(component, rule, detail string)) {
	for i := range d.vaults {
		v := &d.vaults[i]
		if q := len(v.queue); q > d.cfg.QueueDepth {
			report(d.auditName, "vault-queue-bound",
				fmt.Sprintf("vault %d holds %d requests, depth %d", i, q, d.cfg.QueueDepth))
		}
		if v.reads < 0 || v.reads > len(v.queue) {
			report(d.auditName, "vault-read-count",
				fmt.Sprintf("vault %d counts %d queued reads among %d requests", i, v.reads, len(v.queue)))
		}
	}
	if d.outstandingReads < 0 {
		report(d.auditName, "outstanding-reads",
			fmt.Sprintf("outstanding reads went negative: %d", d.outstandingReads))
	}
	p, s := d.auditPrev, d.stats
	if s.Reads < p.Reads || s.Writes < p.Writes || s.BytesTransferred < p.BytesTransferred ||
		s.BusyTime < p.BusyTime {
		report(d.auditName, "stats-monotone", fmt.Sprintf("stats regressed: %+v -> %+v", p, s))
	}
	d.auditPrev = s
}

// New builds the DRAM stack. It panics on invalid configuration: a config
// is construction-time input, not runtime data.
func New(k *sim.Kernel, cfg Config) *HMCDRAM {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	d := &HMCDRAM{cfg: cfg, kernel: k, vaults: make([]vault, cfg.Vaults)}
	// Every vault's queue and bank arrays are cut from one slab each, so
	// a module costs a handful of allocations, not a few per vault. The
	// queue never exceeds QueueDepth (AccessAction rejects past it), so
	// its full capacity up front means no vault ever grows its queue
	// mid-run.
	queues := make([]request, cfg.Vaults*cfg.QueueDepth)
	bankFree := make([]sim.Time, cfg.Vaults*cfg.Banks)
	for i := range d.vaults {
		v := &d.vaults[i]
		q, b := i*cfg.QueueDepth, i*cfg.Banks
		v.idx = i
		v.queue = queues[q : q : q+cfg.QueueDepth]
		v.bankFree = bankFree[b : b+cfg.Banks]
		// No activate has happened yet; far enough in the past that the
		// tRRD window never binds the first access.
		v.lastActivate = -(sim.Time(1) << 60)
		v.issue = issueAction{d: d, v: v}
	}
	return d
}

// refreshAdjust pushes a candidate activate time out of any all-bank
// refresh window of the vault. Refresh is modelled analytically (every
// vault refreshes for tRFC once per tREFI, phase-staggered by vault index)
// rather than with events, so idle networks stay event-free and RunAll
// terminates.
func (d *HMCDRAM) refreshAdjust(vaultIdx int, start sim.Time) sim.Time {
	if d.cfg.TREFI <= 0 {
		return start
	}
	phase := d.cfg.TREFI * sim.Duration(vaultIdx+1) / sim.Duration(d.cfg.Vaults)
	since := start - phase
	if since < 0 {
		return start
	}
	into := since % d.cfg.TREFI
	if into < d.cfg.TRFC {
		d.stats.RefreshStalls++
		return start + (d.cfg.TRFC - into)
	}
	return start
}

// Config returns the active configuration.
func (d *HMCDRAM) Config() Config { return d.cfg }

// Stats returns a snapshot of accumulated statistics.
func (d *HMCDRAM) Stats() Stats { return d.stats }

// OutstandingReads reports reads queued or in flight; the network-aware
// ROO policy keeps the module's response link on while this is non-zero.
func (d *HMCDRAM) OutstandingReads() int { return d.outstandingReads }

// QueuedRequests counts requests waiting in vault queues (excluding the
// one in service per vault) — the metrics sampler's queue-depth probe.
func (d *HMCDRAM) QueuedRequests() int {
	total := 0
	for i := range d.vaults {
		total += len(d.vaults[i].queue)
	}
	return total
}

// VaultFor maps a physical address to its vault (line-interleaved).
func (d *HMCDRAM) VaultFor(addr uint64) int {
	return int((addr / uint64(d.cfg.LineBytes)) % uint64(d.cfg.Vaults))
}

// Access enqueues a line access. done fires when the access completes
// (data burst finished for reads, write restored for writes). It returns
// false if the vault queue is full, in which case the caller must retry —
// the network layer holds the packet at the link controller in that case.
func (d *HMCDRAM) Access(addr uint64, isRead bool, done func()) bool {
	var c Completion
	if done != nil {
		c = funcDone(done)
	}
	return d.AccessAction(addr, isRead, c)
}

// AccessAction is Access taking a Completion value directly — the
// allocation-free entry point for callers with pooled completions.
func (d *HMCDRAM) AccessAction(addr uint64, isRead bool, done Completion) bool {
	v := d.enqueue(addr, isRead, done)
	if v == nil {
		return false
	}
	if !v.inService {
		if d.kernel.Passed(v.issueAt, v.issueSeq) {
			d.serviceNext(v)
		} else {
			// The vault's next issue is still ahead: serve the request
			// there, at the position the event would have held had it
			// been scheduled when reserved.
			v.inService = true
			d.kernel.ScheduleActionSeq(v.issueAt, v.issueSeq, &v.issue)
		}
	}
	return true
}

// enqueue queues a line access on its vault, reads ahead of writes, and
// returns the vault, or nil when its queue is full.
func (d *HMCDRAM) enqueue(addr uint64, isRead bool, done Completion) *vault {
	v := &d.vaults[d.VaultFor(addr)]
	if len(v.queue) >= d.cfg.QueueDepth {
		d.stats.QueueFullRejects++
		return nil
	}
	i := len(v.queue)
	if isRead {
		d.outstandingReads++
		// Reads are prioritized: insert after the queued reads, ahead of
		// the first write.
		i = v.reads
		v.reads++
	}
	v.queue = insertAt(v.queue, i, request{done: done})
	if d.aud.Sample() && len(v.queue) > d.cfg.QueueDepth {
		d.aud.Reportf(d.auditName, "vault-queue-bound",
			"vault %d accepted past its depth: %d > %d", v.idx, len(v.queue), d.cfg.QueueDepth)
	}
	return v
}

// insertAt inserts x at s[i] within s's capacity.
func insertAt[T any](s []T, i int, x T) []T {
	s = append(s, x)
	copy(s[i+1:], s[i:])
	s[i] = x
	return s
}

// popFront removes s[0], zeroing the vacated tail entry. The copy-down
// keeps the backing array in place, so the queue's capacity is reused
// forever instead of re-allocated as the base pointer walks forward.
func popFront[T any](s []T) []T {
	var zero T
	copy(s, s[1:])
	s[len(s)-1] = zero
	return s[:len(s)-1]
}

// serviceNext starts the head-of-queue access on vault v, which must
// hold one, and schedules or reserves the vault's next issue.
func (d *HMCDRAM) serviceNext(v *vault) {
	next := d.serveHead(v)
	v.inService = len(v.queue) > 0
	if v.inService {
		d.kernel.ScheduleAction(next, &v.issue)
	} else {
		v.issueAt, v.issueSeq = next, d.kernel.ReserveSeq()
	}
}

// serveHead takes the head-of-queue access on vault v into service: it
// picks a bank, times the access, schedules its data-burst completion
// and returns when the vault can issue its next activate.
func (d *HMCDRAM) serveHead(v *vault) sim.Time {
	req := v.queue[0]
	isRead := v.reads > 0
	if isRead {
		v.reads--
	}
	v.queue = popFront(v.queue)

	now := d.kernel.Now()
	// Close page takes the earliest-free bank: every bank is precharged
	// between accesses, so the address plays no part in the choice.
	bank := 0
	for i, t := range v.bankFree {
		if t < v.bankFree[bank] {
			bank = i
		}
	}

	start := now
	if v.bankFree[bank] > start {
		start = v.bankFree[bank]
	}
	if v.lastActivate+d.cfg.TRRD > start {
		start = v.lastActivate + d.cfg.TRRD
	}
	start = d.refreshAdjust(v.idx, start)

	burst := d.cfg.BurstTime()
	// Every access activates its row and reads or writes it: tRCD + tCL to
	// data. The data burst must then win the shared vault data bus.
	dataStart := start + d.cfg.TRCD + d.cfg.TCL
	if v.busFree > dataStart {
		// Delay the whole access so the burst lands when the bus frees.
		delta := v.busFree - dataStart
		start += delta
		dataStart += delta
	}
	dataEnd := dataStart + burst

	v.lastActivate = start
	v.busFree = dataEnd
	// The bank is busy for a full tRC; writes additionally hold it for tWR.
	bankBusyUntil := start + d.cfg.TRC()
	if !isRead {
		bankBusyUntil += d.cfg.TWR
	}
	v.bankFree[bank] = bankBusyUntil

	d.stats.BusyTime += burst
	d.stats.BytesTransferred += uint64(d.cfg.LineBytes)

	if isRead {
		d.stats.Reads++
		if d.OnReadStart != nil {
			d.OnReadStart()
		}
	} else {
		d.stats.Writes++
	}

	var bd *burstDoneAction
	if n := len(d.doneFree); n > 0 {
		bd, d.doneFree = d.doneFree[n-1], d.doneFree[:n-1]
	} else {
		bd = &burstDoneAction{d: d}
	}
	bd.isRead, bd.done = isRead, req.done
	d.kernel.ScheduleAction(dataEnd, bd)
	// The vault can issue its next activate tRRD after this one (bank and
	// bus conflicts are resolved when that access is scheduled), so the
	// queue drains in a pipeline rather than one access per tRC.
	nextIssue := start + d.cfg.TRRD
	if nextIssue < now {
		nextIssue = now
	}
	return nextIssue
}
