package metrics

import (
	"errors"
	"reflect"
	"testing"

	"memnet/internal/sim"
)

// fixture builds a registry with one counter, one gauge and one
// 3-bucket histogram driven by plain variables, over a fresh kernel.
type fixture struct {
	kernel *sim.Kernel
	reg    *Registry
	cum    float64
	gauge  float64
	hist   [3]uint64
}

func newFixture(interval sim.Duration) *fixture {
	f := &fixture{kernel: sim.NewKernel()}
	f.reg = New(interval)
	f.reg.Counter("c", func() float64 { return f.cum })
	f.reg.Gauge("g", func() float64 { return f.gauge })
	f.reg.HistogramSeries("h", []float64{10, 100, 1000}, func(cum []uint64) {
		copy(cum, f.hist[:])
	})
	return f
}

// step is a test event that advances the fixture's instrumented values.
type step struct {
	f *fixture
	i int
}

func (s *step) Act() {
	s.f.cum += float64(s.i) // counter delta i in tick i
	s.f.gauge = float64(10 * s.i)
	s.f.hist[s.i%3]++
}

func TestTickerSamplesAtFixedTimes(t *testing.T) {
	f := newFixture(10 * sim.Microsecond)
	until := sim.Time(55 * sim.Microsecond)
	// Drive the instrumented values from kernel events between ticks.
	for i := 1; i <= 5; i++ {
		f.kernel.ScheduleAction(sim.Time(i*10-5)*sim.Time(sim.Microsecond), &step{f, i})
	}
	f.reg.Run(f.kernel, until)

	if f.kernel.Now() != until {
		t.Errorf("kernel stopped at %v, want %v", f.kernel.Now(), until)
	}
	d := f.reg.Dump()
	if d.Ticks != 5 {
		t.Fatalf("ticks=%d, want 5", d.Ticks)
	}
	wantC := []float64{1, 2, 3, 4, 5}
	if !reflect.DeepEqual(d.Series[0].Samples, wantC) {
		t.Errorf("counter deltas = %v, want %v", d.Series[0].Samples, wantC)
	}
	wantG := []float64{10, 20, 30, 40, 50}
	if !reflect.DeepEqual(d.Series[1].Samples, wantG) {
		t.Errorf("gauge samples = %v, want %v", d.Series[1].Samples, wantG)
	}
	wantH := [][]uint64{{0, 1, 0}, {0, 0, 1}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	if !reflect.DeepEqual(d.Series[2].Hist, wantH) {
		t.Errorf("hist deltas = %v, want %v", d.Series[2].Hist, wantH)
	}
}

// TestSampleSeesEveryEventAtItsInstant: an event at a sampling instant
// counts in the tick ending there, whenever it was scheduled, because
// the sample is taken after Kernel.Run returns from that instant.
func TestSampleSeesEveryEventAtItsInstant(t *testing.T) {
	f := newFixture(sim.Microsecond)
	f.kernel.ScheduleAction(sim.Time(sim.Microsecond), &step{f, 1})
	f.reg.Run(f.kernel, sim.Time(2*sim.Microsecond))
	if got := f.reg.Dump().Series[0].Samples; !reflect.DeepEqual(got, []float64{1, 0}) {
		t.Errorf("counter deltas = %v, want [1 0]", got)
	}
}

// TestStartBaseline: counters that advanced before sampling starts
// (warmup) must not leak into the first tick's delta.
func TestStartBaseline(t *testing.T) {
	f := newFixture(sim.Microsecond)
	f.cum = 1000
	f.hist[0] = 7
	f.reg.Run(f.kernel, sim.Time(2*sim.Microsecond))
	d := f.reg.Dump()
	if got := d.Series[0].Samples[0]; got != 0 {
		t.Errorf("first counter delta = %g, want 0 (pre-Run cum excluded)", got)
	}
	if got := d.Series[2].Hist[0][0]; got != 0 {
		t.Errorf("first hist delta = %d, want 0", got)
	}
}

// TestRunTickCount: table-driven coverage of the tick count. A run takes
// one sample per whole interval from its start to until, holds every one
// in chronological order, and leaves the kernel at until; a run whose
// armed check stops a step keeps the samples taken before it.
func TestRunTickCount(t *testing.T) {
	us := sim.Time(sim.Microsecond)
	cases := []struct {
		name      string
		from      sim.Time // kernel time Run starts at
		until     sim.Time
		stopAfter uint64 // stop once this many events ran (0 = never)
		want      int
	}{
		{"whole intervals", 0, 6 * us, 0, 6},
		{"remainder runs unsampled", 0, 6*us + us/2, 0, 6},
		{"shorter than one interval", 0, us / 2, 0, 0},
		{"started late", 3 * us, 9 * us, 0, 6},
		{"stopped by the check", 0, 6 * us, 3, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(sim.Duration(sim.Microsecond))
			// One event just before every tick after the start, so the
			// i-th sample's counter delta is the event's index.
			for i := 1; sim.Time(i)*us <= tc.until; i++ {
				f.kernel.ScheduleAction(sim.Time(i)*us-1, &step{f, i})
			}
			f.kernel.Run(tc.from)
			if tc.stopAfter > 0 {
				stop := errors.New("stop")
				f.kernel.SetCheck(1, func() error {
					if f.kernel.Processed() >= tc.stopAfter {
						return stop
					}
					return nil
				})
			}
			f.reg.Run(f.kernel, tc.until)
			d := f.reg.Dump()
			if d.Ticks != tc.want || len(d.Series[0].Samples) != tc.want || len(d.Series[2].Hist) != tc.want {
				t.Fatalf("ticks=%d (%d samples, %d hist rows), want %d",
					d.Ticks, len(d.Series[0].Samples), len(d.Series[2].Hist), tc.want)
			}
			if d.Start != tc.from {
				t.Errorf("start = %v, want %v", d.Start, tc.from)
			}
			first := int(tc.from/us) + 1
			for j, v := range d.Series[0].Samples {
				if v != float64(first+j) {
					t.Fatalf("samples not chronological at %d: %v", j, d.Series[0].Samples)
				}
			}
			if tc.stopAfter == 0 && f.kernel.Now() != tc.until {
				t.Errorf("kernel stopped at %v, want %v", f.kernel.Now(), tc.until)
			}
			if tc.stopAfter > 0 && f.kernel.Err() == nil {
				t.Error("stopped run reports no error")
			}
		})
	}
}

// TestMerge: table-driven coverage of the deterministic cross-cell merge.
func TestMerge(t *testing.T) {
	mk := func(ticks int, scale float64) *Dump {
		d := &Dump{Interval: sim.Duration(sim.Microsecond), Ticks: ticks, Series: []SeriesDump{
			{Name: "c", Kind: "counter"},
			{Name: "h", Kind: "histogram", Bounds: []float64{1, 2}},
		}}
		for j := 1; j <= ticks; j++ {
			d.Series[0].Samples = append(d.Series[0].Samples, scale*float64(j))
			d.Series[1].Hist = append(d.Series[1].Hist, []uint64{uint64(j), uint64(scale)})
		}
		return d
	}
	t.Run("element-wise sum", func(t *testing.T) {
		m, err := Merge(mk(3, 1), mk(3, 10))
		if err != nil {
			t.Fatal(err)
		}
		want := []float64{11, 22, 33}
		if !reflect.DeepEqual(m.Series[0].Samples, want) {
			t.Errorf("merged samples = %v, want %v", m.Series[0].Samples, want)
		}
		wantH := [][]uint64{{2, 11}, {4, 11}, {6, 11}}
		if !reflect.DeepEqual(m.Series[1].Hist, wantH) {
			t.Errorf("merged hist = %v, want %v", m.Series[1].Hist, wantH)
		}
	})
	t.Run("length mismatch zero-pads", func(t *testing.T) {
		m, err := Merge(mk(2, 1), mk(4, 1))
		if err != nil {
			t.Fatal(err)
		}
		want := []float64{2, 4, 3, 4}
		if !reflect.DeepEqual(m.Series[0].Samples, want) {
			t.Errorf("merged samples = %v, want %v", m.Series[0].Samples, want)
		}
		if m.Ticks != 4 {
			t.Errorf("merged ticks = %d, want 4", m.Ticks)
		}
	})
	t.Run("nil dumps skipped", func(t *testing.T) {
		m, err := Merge(nil, mk(1, 1), nil)
		if err != nil || m == nil || m.Series[0].Samples[0] != 1 {
			t.Errorf("merge with nils = %v, %v", m, err)
		}
		if m2, err := Merge(nil, nil); m2 != nil || err != nil {
			t.Errorf("all-nil merge = %v, %v, want nil, nil", m2, err)
		}
	})
	t.Run("schema mismatch rejected", func(t *testing.T) {
		bad := mk(1, 1)
		bad.Series[0].Name = "other"
		if _, err := Merge(mk(1, 1), bad); err == nil {
			t.Error("mismatched series name accepted")
		}
		short := mk(1, 1)
		short.Series = short.Series[:1]
		if _, err := Merge(mk(1, 1), short); err == nil {
			t.Error("mismatched series count accepted")
		}
		iv := mk(1, 1)
		iv.Interval *= 2
		if _, err := Merge(mk(1, 1), iv); err == nil {
			t.Error("mismatched interval accepted")
		}
	})
	t.Run("argument order is the sum order", func(t *testing.T) {
		// Same multiset of dumps, same order => identical bits. This is
		// the property the sweep exporter relies on for -jobs N
		// determinism (it always merges in sweep order).
		a, _ := Merge(mk(2, 0.1), mk(2, 0.3), mk(2, 0.7))
		b, _ := Merge(mk(2, 0.1), mk(2, 0.3), mk(2, 0.7))
		if !reflect.DeepEqual(a, b) {
			t.Error("repeated merge not bit-identical")
		}
	})
}

// TestNilRegistryInert: the disabled path must be safe and silent, and
// its Run a plain Kernel.Run.
func TestNilRegistryInert(t *testing.T) {
	var r *Registry
	r.Counter("c", nil)
	r.Gauge("g", nil)
	r.HistogramSeries("h", []float64{1}, nil)
	k := sim.NewKernel()
	ran := false
	k.Schedule(50, func() { ran = true })
	r.Run(k, 100)
	if !ran || k.Now() != 100 {
		t.Errorf("nil Run: ran=%v now=%v, want the event run and the clock at 100", ran, k.Now())
	}
	if r.Dump() != nil {
		t.Error("nil registry not inert")
	}
}

func TestDuplicateAndLateRegistrationPanic(t *testing.T) {
	f := newFixture(sim.Duration(sim.Microsecond))
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("duplicate", func() { f.reg.Counter("c", func() float64 { return 0 }) })
	mustPanic("zero interval", func() { New(0) })
	f.reg.Run(f.kernel, sim.Time(sim.Microsecond))
	mustPanic("late registration", func() { f.reg.Gauge("late", func() float64 { return 0 }) })
	mustPanic("second run", func() { f.reg.Run(f.kernel, sim.Time(2*sim.Microsecond)) })
}

// TestObserveZeroAllocs pins the allocation-free sampling budget: the
// buffers are sized to the run before it starts, so a tick allocates
// nothing.
func TestObserveZeroAllocs(t *testing.T) {
	f := newFixture(sim.Duration(sim.Microsecond))
	f.reg.begin(0, 128)
	allocs := testing.AllocsPerRun(100, func() {
		f.cum++
		f.hist[1]++
		f.reg.observe()
	})
	if allocs != 0 {
		t.Fatalf("observe allocates %.1f objects/tick, want 0", allocs)
	}
}

func BenchmarkObserve(b *testing.B) {
	f := newFixture(sim.Duration(sim.Microsecond))
	f.reg.begin(0, b.N)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.cum++
		f.reg.observe()
	}
}
