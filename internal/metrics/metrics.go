// Package metrics is the epoch-resolution time-series subsystem: named
// counters, gauges and fixed-bucket histograms registered per component,
// sampled at fixed kernel times into buffers sized to the run. The
// paper's core claims are time-resolved — idle I/O dominance, wakeup
// cascades, per-epoch slack — and this package records how those
// quantities evolve over a run instead of only reporting end-of-run
// aggregates.
//
// Design rules, in priority order:
//
//   - Sampling moves no event. Registry.Run steps Kernel.Run from one
//     sampling instant to the next and samples between the calls, so the
//     kernel dispatches the very events, at the very seqs, of one
//     unsampled Run (sim's TestSteppedRunMatchesOneRun pins this). An
//     armed run's results, Events included, equal an unarmed run's.
//   - Disabled must be free. A nil *Registry is a valid receiver for
//     every method; components hold the nil handle and pay one branch,
//     and a nil Run is a plain Kernel.Run.
//   - Sampling is pull-based and allocation-free. Components register
//     closures over counters they already maintain; a sample reads them
//     into buffers Run sizes to the run's tick count up front
//     (TestObserveZeroAllocs asserts 0 allocs/tick). The sampler never
//     mutates simulation state.
//   - Everything is deterministic. Series iterate in registration order
//     (component build order), samples are taken at fixed kernel times,
//     and the exported dump of a sweep cell is a pure function of its
//     spec — so a -jobs 8 sweep exports byte-identical metrics to -jobs 1.
package metrics

import (
	"fmt"

	"memnet/internal/sim"
)

// MaxTicks bounds the samples one run may take; exp.Spec.Validate
// rejects a sampling interval that gives more over its measured
// interval. It covers the paper's 10 ms window at a 10 µs interval.
const MaxTicks = 1024

// Kind discriminates how a series is sampled and stored.
type Kind uint8

const (
	// Counter samples a cumulative, monotone value; the buffer stores
	// the per-tick delta (rate × interval).
	Counter Kind = iota
	// Gauge samples an instantaneous value; the buffer stores it as-is.
	Gauge
	// Histogram samples cumulative fixed-bucket counts; the buffer
	// stores per-tick bucket deltas.
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
	samples []float64          // Counter/Gauge: one value per tick
	hist    []uint64           // Histogram: len(bounds) deltas per tick
}

// Registry owns the series of one simulation run and samples them.
// The zero registry pointer (nil) is inert: every method is a no-op.
type Registry struct {
	interval sim.Duration
	start    sim.Time // kernel time Run began (tick i is at start + i·interval)
	ticks    int      // completed ticks
	series   []*series
	started  bool
}

// New builds a registry sampling every interval, which must be
// positive. Components register series before Run.
func New(interval sim.Duration) *Registry {
	if interval <= 0 {
		panic("metrics: non-positive sampling interval")
	}
	return &Registry{interval: interval}
}

// Counter registers a cumulative series; sample must be monotone
// non-decreasing (the buffer stores per-tick deltas). Nil-safe.
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
// cum (len(bounds) long) with cumulative counts. The buffer stores
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
		panic("metrics: registration after Run")
	}
	for _, have := range r.series {
		if have.name == s.name {
			panic("metrics: duplicate series " + s.name)
		}
	}
	r.series = append(r.series, s)
}

// Run runs k to until, sampling every series at now+i, now+2i, … up to
// and including until: it steps k.Run to each sampling instant and
// samples after the call returns, once every event at that instant has
// run. It stops early, with k.Err() set, when k's armed check stops a
// step. A nil registry is just k.Run(until). A registry runs once.
func (r *Registry) Run(k *sim.Kernel, until sim.Time) {
	if r == nil {
		k.Run(until)
		return
	}
	n := 0
	if until > k.Now() {
		n = int((until - k.Now()) / sim.Time(r.interval))
	}
	r.begin(k.Now(), n)
	for i := 1; i <= n; i++ {
		k.Run(r.start + sim.Time(i)*sim.Time(r.interval))
		if k.Err() != nil {
			return
		}
		r.observe()
	}
	k.Run(until)
}

// begin sizes every buffer to n ticks and takes the baseline pull, so
// the first sample's counter deltas cover exactly one interval even when
// counters advanced before Run (e.g. warmup).
func (r *Registry) begin(now sim.Time, n int) {
	if r.started {
		panic("metrics: Run twice")
	}
	r.started = true
	r.start = now
	for _, s := range r.series {
		switch s.kind {
		case Counter:
			s.samples = make([]float64, 0, n)
			s.prev = s.sample()
		case Gauge:
			s.samples = make([]float64, 0, n)
		case Histogram:
			s.hist = make([]uint64, 0, n*len(s.bounds))
			s.sampleH(s.prevH)
		}
	}
}

// observe takes one sample of every series.
func (r *Registry) observe() {
	for _, s := range r.series {
		switch s.kind {
		case Counter:
			cur := s.sample()
			s.samples = append(s.samples, cur-s.prev)
			s.prev = cur
		case Gauge:
			s.samples = append(s.samples, s.sample())
		case Histogram:
			s.sampleH(s.curH)
			for i, c := range s.curH {
				s.hist = append(s.hist, c-s.prevH[i])
			}
			copy(s.prevH, s.curH)
		}
	}
	r.ticks++
}

// Dump freezes the registry into an exportable, JSON-friendly snapshot
// of every tick taken, in chronological order. Returns nil on a nil
// registry (the disabled path).
func (r *Registry) Dump() *Dump {
	if r == nil {
		return nil
	}
	d := &Dump{
		Interval: r.interval,
		Start:    r.start,
		Ticks:    r.ticks,
		Series:   make([]SeriesDump, 0, len(r.series)),
	}
	for _, s := range r.series {
		sd := SeriesDump{Name: s.name, Kind: s.kind.String()}
		if s.kind == Histogram {
			b := len(s.bounds)
			flat := append([]uint64(nil), s.hist...)
			sd.Bounds = append([]float64(nil), s.bounds...)
			sd.Hist = make([][]uint64, r.ticks)
			for j := range sd.Hist {
				sd.Hist[j] = flat[j*b : (j+1)*b : (j+1)*b]
			}
		} else {
			sd.Samples = append(make([]float64, 0, r.ticks), s.samples...)
		}
		d.Series = append(d.Series, sd)
	}
	return d
}

// Dump is the frozen, exportable form of a registry.
type Dump struct {
	// Interval is the sampling period; sample j (0-based) covers
	// simulated time Start + j·Interval .. + Interval.
	Interval sim.Duration `json:"interval_ps"`
	// Start is the kernel time sampling began.
	Start sim.Time `json:"start_ps"`
	// Ticks counts every sample taken.
	Ticks  int          `json:"ticks"`
	Series []SeriesDump `json:"series"`
}

// SeriesDump is one frozen series.
type SeriesDump struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Samples holds counter deltas or gauge values, oldest first.
	Samples []float64 `json:"samples,omitempty"`
	// Bounds and Hist carry histogram series: Hist[j][i] is the count
	// added to bucket i (upper edge Bounds[i]) during tick j.
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
