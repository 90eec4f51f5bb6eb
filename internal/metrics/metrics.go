// Package metrics is the epoch-resolution time-series subsystem: named
// counters, gauges and fixed-bucket histograms registered per component,
// sampled by a kernel-driven ticker into preallocated ring buffers. The
// paper's core claims are time-resolved — idle I/O dominance, wakeup
// cascades, per-epoch slack — and this package records how those
// quantities evolve over a run instead of only reporting end-of-run
// aggregates.
//
// Design rules, in priority order:
//
//   - Disabled must be free. A nil *Registry is a valid receiver for
//     every method; components hold the nil handle and pay one branch.
//     No ticker events are scheduled, so the kernel event sequence — and
//     therefore every simulation result — is byte-identical to a build
//     without metrics (the golden CLI tests pin this).
//   - Sampling is pull-based and allocation-free. Components register
//     closures over counters they already maintain; a tick reads them
//     into rings preallocated at Start (TestObserveZeroAllocs asserts 0
//     allocs/tick). The sampler never mutates simulation state.
//   - Everything is deterministic. Series iterate in registration order
//     (component build order), ticks fire at fixed kernel times, and the
//     exported dump of a sweep cell is a pure function of its spec — so
//     a -jobs 8 sweep exports byte-identical metrics to -jobs 1.
//
// Ring buffers hold the last Capacity samples per series; earlier
// samples fall off the front and are reported via Dump.Dropped rather
// than silently lost.
package metrics

import (
	"fmt"

	"memnet/internal/sim"
)

// Kind discriminates how a series is sampled and stored.
type Kind uint8

const (
	// Counter samples a cumulative, monotone value; the ring stores the
	// per-tick delta (rate × interval).
	Counter Kind = iota
	// Gauge samples an instantaneous value; the ring stores it as-is.
	Gauge
	// Histogram samples cumulative fixed-bucket counts; the ring stores
	// per-tick bucket deltas.
	Histogram
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Counter:
		return "counter"
	case Gauge:
		return "gauge"
	case Histogram:
		return "histogram"
	}
	return fmt.Sprintf("kind(%d)", k)
}

// Defaults. The interval is finer than the 100 µs management epoch so a
// run resolves intra-epoch structure (wakeup cascades, queue spikes);
// the capacity covers 10 ms of simulated time at the default interval —
// the paper's own measurement window — before the ring wraps.
const (
	DefaultCapacity = 1024
)

// DefaultInterval is the sampling period when none is configured.
var DefaultInterval = 10 * sim.Microsecond

// Config parameterizes a Registry.
type Config struct {
	// Interval is the sampling period (0 = DefaultInterval).
	Interval sim.Duration
	// Capacity is the per-series ring size in samples (0 =
	// DefaultCapacity). When a run outlasts the ring, the oldest samples
	// are dropped and counted in Dump.Dropped.
	Capacity int
}

// series is one registered time-series.
type series struct {
	name    string
	kind    Kind
	sample  func() float64     // Counter, Gauge
	sampleH func(cum []uint64) // Histogram: fill cumulative bucket counts
	bounds  []float64          // Histogram: inclusive upper bucket edges
	prev    float64            // Counter: previous cumulative sample
	prevH   []uint64           // Histogram: previous cumulative buckets
	curH    []uint64           // Histogram: scratch for the current pull
	ring    []float64          // Counter/Gauge ring, len == capacity
	ringH   []uint64           // Histogram ring, len == capacity × len(bounds)
}

// Registry owns the series of one simulation run and drives the ticker.
// The zero registry pointer (nil) is inert: every method is a no-op.
type Registry struct {
	kernel   *sim.Kernel
	interval sim.Duration
	capacity int
	start    sim.Time // kernel time of Start (tick k fires at start + k·interval)
	ticks    int      // completed ticks
	series   []*series
	started  bool
}

// New builds a registry bound to k. Components register series before
// Start arms the ticker.
func New(k *sim.Kernel, cfg Config) *Registry {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	return &Registry{kernel: k, interval: cfg.Interval, capacity: cfg.Capacity}
}

// NewManual builds a registry with no kernel and no ticker: the owner
// calls Observe explicitly after StartManual. This is the wall-clock
// variant used outside a simulation — memnetd's server samples its job
// and admission gauges this way — so Dump.Interval is a nominal label,
// not a sampling guarantee: samples land whenever the owner observes. The owner must also serialize Observe/Dump calls; the
// registry itself is not goroutine-safe.
func NewManual(cfg Config) *Registry {
	return New(nil, cfg)
}

// Interval returns the sampling period (0 on a nil registry).
func (r *Registry) Interval() sim.Duration {
	if r == nil {
		return 0
	}
	return r.interval
}

// Counter registers a cumulative series; sample must be monotone
// non-decreasing (the ring stores per-tick deltas). Nil-safe.
func (r *Registry) Counter(name string, sample func() float64) {
	if r == nil {
		return
	}
	r.add(&series{name: name, kind: Counter, sample: sample})
}

// Gauge registers an instantaneous series. Nil-safe.
func (r *Registry) Gauge(name string, sample func() float64) {
	if r == nil {
		return
	}
	r.add(&series{name: name, kind: Gauge, sample: sample})
}

// HistogramSeries registers a fixed-bucket histogram series: bounds are
// the inclusive upper edges of len(bounds) buckets, and sample must fill
// cum (len(bounds) long) with cumulative counts. The ring stores
// per-tick deltas per bucket. Nil-safe.
func (r *Registry) HistogramSeries(name string, bounds []float64, sample func(cum []uint64)) {
	if r == nil {
		return
	}
	b := len(bounds)
	r.add(&series{
		name:    name,
		kind:    Histogram,
		sampleH: sample,
		bounds:  append([]float64(nil), bounds...),
		prevH:   make([]uint64, b),
		curH:    make([]uint64, b),
	})
}

func (r *Registry) add(s *series) {
	if r.started {
		panic("metrics: registration after Start")
	}
	for _, have := range r.series {
		if have.name == s.name {
			panic("metrics: duplicate series " + s.name)
		}
	}
	r.series = append(r.series, s)
}

// Start preallocates every ring and schedules sampling ticks at fixed
// kernel times now+i, now+2i, … up to and including until. Nil-safe.
// Without Start no events are scheduled and the registry stays silent.
// On a manual (kernel-less) registry it is StartManual.
func (r *Registry) Start(until sim.Time) {
	if r == nil || r.started {
		return
	}
	r.begin()
	if r.kernel != nil {
		r.scheduleTick(until)
	}
}

// StartManual preallocates every ring and takes the baseline pull
// without scheduling any ticker: subsequent samples come from explicit
// Observe calls. Nil-safe. Use with NewManual.
func (r *Registry) StartManual() {
	if r == nil || r.started {
		return
	}
	r.begin()
}

// begin is the shared arming path: mark started, record the start time,
// preallocate rings, and take the baseline pull so the first sample's
// counter deltas cover exactly one interval even when counters advanced
// before Start (e.g. warmup).
func (r *Registry) begin() {
	r.started = true
	if r.kernel != nil {
		r.start = r.kernel.Now()
	}
	for _, s := range r.series {
		if s.kind == Histogram {
			s.ringH = make([]uint64, r.capacity*len(s.bounds))
		} else {
			s.ring = make([]float64, r.capacity)
		}
	}
	for _, s := range r.series {
		switch s.kind {
		case Counter:
			s.prev = s.sample()
		case Histogram:
			s.sampleH(s.prevH)
			copy(s.curH, s.prevH)
		}
	}
}

func (r *Registry) scheduleTick(until sim.Time) {
	next := r.kernel.Now() + sim.Time(r.interval)
	if next > until {
		return
	}
	r.kernel.Schedule(next, func() {
		r.Observe()
		r.scheduleTick(until)
	})
}

// Observe takes one sample of every series. It is the ticker's body,
// exported for benchmarks and the zero-alloc test; callers normally
// never invoke it directly. Nil-safe.
func (r *Registry) Observe() {
	if r == nil || !r.started {
		return
	}
	slot := r.ticks % r.capacity
	for _, s := range r.series {
		switch s.kind {
		case Counter:
			cur := s.sample()
			s.ring[slot] = cur - s.prev
			s.prev = cur
		case Gauge:
			s.ring[slot] = s.sample()
		case Histogram:
			s.sampleH(s.curH)
			row := s.ringH[slot*len(s.bounds) : (slot+1)*len(s.bounds)]
			for i, c := range s.curH {
				row[i] = c - s.prevH[i]
			}
			copy(s.prevH, s.curH)
		}
	}
	r.ticks++
}

// Ticks returns the number of completed sampling ticks. Nil-safe.
func (r *Registry) Ticks() int {
	if r == nil {
		return 0
	}
	return r.ticks
}

// Dump freezes the registry into an exportable, JSON-friendly snapshot.
// Samples are returned in chronological order; when the ring wrapped,
// the oldest retained sample is tick Dropped+1. Returns nil on a nil
// registry (the disabled path). Nil-safe.
func (r *Registry) Dump() *Dump {
	if r == nil {
		return nil
	}
	n := r.ticks
	if n > r.capacity {
		n = r.capacity
	}
	d := &Dump{
		Interval: r.interval,
		Start:    r.start,
		Ticks:    r.ticks,
		Dropped:  r.ticks - n,
		Series:   make([]SeriesDump, 0, len(r.series)),
	}
	first := r.ticks - n // ring index of the oldest retained sample
	for _, s := range r.series {
		sd := SeriesDump{Name: s.name, Kind: s.kind.String()}
		if s.kind == Histogram {
			b := len(s.bounds)
			sd.Bounds = append([]float64(nil), s.bounds...)
			sd.Hist = make([][]uint64, n)
			for j := 0; j < n; j++ {
				slot := (first + j) % r.capacity
				sd.Hist[j] = append([]uint64(nil), s.ringH[slot*b:(slot+1)*b]...)
			}
		} else {
			sd.Samples = make([]float64, n)
			for j := 0; j < n; j++ {
				sd.Samples[j] = s.ring[(first+j)%r.capacity]
			}
		}
		d.Series = append(d.Series, sd)
	}
	return d
}

// Dump is the frozen, exportable form of a registry.
type Dump struct {
	// Interval is the sampling period; retained sample j (0-based)
	// covers simulated time Start + (Dropped+j)·Interval .. + Interval.
	Interval sim.Duration `json:"interval_ps"`
	// Start is the kernel time sampling began.
	Start sim.Time `json:"start_ps"`
	// Ticks counts every sample taken; Dropped counts those lost to ring
	// wraparound (oldest first).
	Ticks   int          `json:"ticks"`
	Dropped int          `json:"dropped,omitempty"`
	Series  []SeriesDump `json:"series"`
}

// SeriesDump is one frozen series.
type SeriesDump struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Samples holds counter deltas or gauge values, oldest first.
	Samples []float64 `json:"samples,omitempty"`
	// Bounds and Hist carry histogram series: Hist[j][i] is the count
	// added to bucket i (upper edge Bounds[i]) during retained tick j.
	Bounds []float64  `json:"bounds,omitempty"`
	Hist   [][]uint64 `json:"hist,omitempty"`
}

// Merge combines dumps with identical schemas (same interval, same
// series names/kinds/bounds in the same order) into one aggregate:
// counters, gauges and histogram buckets sum element-wise, and shorter
// dumps zero-pad to the longest. Summation runs in argument order, so
// callers that pass dumps in sweep order get bit-identical aggregates
// regardless of how many workers produced them. Nil dumps are skipped;
// merging zero dumps returns nil.
func Merge(dumps ...*Dump) (*Dump, error) {
	var live []*Dump
	for _, d := range dumps {
		if d != nil {
			live = append(live, d)
		}
	}
	if len(live) == 0 {
		return nil, nil
	}
	base := live[0]
	out := &Dump{
		Interval: base.Interval,
		Start:    base.Start,
		Series:   make([]SeriesDump, len(base.Series)),
	}
	for i, s := range base.Series {
		out.Series[i] = SeriesDump{Name: s.Name, Kind: s.Kind, Bounds: append([]float64(nil), s.Bounds...)}
	}
	for _, d := range live {
		if d.Interval != base.Interval {
			return nil, fmt.Errorf("metrics: merge interval mismatch: %s vs %s",
				base.Interval, d.Interval)
		}
		if len(d.Series) != len(base.Series) {
			return nil, fmt.Errorf("metrics: merge series count mismatch: %d vs %d",
				len(base.Series), len(d.Series))
		}
		if d.Ticks > out.Ticks {
			out.Ticks = d.Ticks
		}
		if d.Dropped > out.Dropped {
			out.Dropped = d.Dropped
		}
		for i := range d.Series {
			src, dst := &d.Series[i], &out.Series[i]
			if src.Name != dst.Name || src.Kind != dst.Kind || len(src.Bounds) != len(dst.Bounds) {
				return nil, fmt.Errorf("metrics: merge schema mismatch at series %d: %s/%s vs %s/%s",
					i, dst.Name, dst.Kind, src.Name, src.Kind)
			}
			for len(dst.Samples) < len(src.Samples) {
				dst.Samples = append(dst.Samples, 0)
			}
			for j, v := range src.Samples {
				dst.Samples[j] += v
			}
			for len(dst.Hist) < len(src.Hist) {
				dst.Hist = append(dst.Hist, make([]uint64, len(dst.Bounds)))
			}
			for j, row := range src.Hist {
				for b, c := range row {
					dst.Hist[j][b] += c
				}
			}
		}
	}
	return out, nil
}
