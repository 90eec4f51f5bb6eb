package audit

import (
	"strings"
	"testing"

	"memnet/internal/sim"
)

func fixedClock(t sim.Time) func() sim.Time { return func() sim.Time { return t } }

func TestNilAuditorIsInert(t *testing.T) {
	var a *Auditor
	if a.Sample() {
		t.Fatal("nil auditor sampled")
	}
	a.Reportf("x", "y", "z")
	a.RegisterSweep(func(sim.Time, func(string, string, string)) { t.Fatal("sweep ran") })
	a.RunSweeps()
	if a.Err() != nil || a.Count() != 0 || a.Violations() != nil || a.Observations() != 0 {
		t.Fatal("nil auditor retained state")
	}
}

func TestSamplingCadence(t *testing.T) {
	a := New(Config{SampleEvery: 4}, fixedClock(0))
	var hits []uint64
	for i := 1; i <= 12; i++ {
		if a.Sample() {
			hits = append(hits, a.Observations())
		}
	}
	want := []uint64{4, 8, 12}
	if len(hits) != len(want) {
		t.Fatalf("sampled at %v, want %v", hits, want)
	}
	for i := range want {
		if hits[i] != want[i] {
			t.Fatalf("sampled at %v, want %v", hits, want)
		}
	}
}

func TestPeriodicSweeps(t *testing.T) {
	a := New(Config{SampleEvery: 1, SweepEvery: 8}, fixedClock(42))
	runs := 0
	a.RegisterSweep(func(now sim.Time, report func(string, string, string)) {
		runs++
		if now != 42 {
			t.Fatalf("sweep clock = %v, want 42", now)
		}
	})
	for i := 0; i < 24; i++ {
		a.Sample()
	}
	if runs != 3 {
		t.Fatalf("sweeps ran %d times over 24 obs with stride 8, want 3", runs)
	}
}

func TestReportLimitAndError(t *testing.T) {
	a := New(Config{Limit: 2}, fixedClock(7))
	for i := 0; i < 5; i++ {
		a.Reportf("link[3]", "state-lattice", "violation %d", i)
	}
	if a.Count() != 5 {
		t.Fatalf("count = %d, want 5", a.Count())
	}
	if len(a.Violations()) != 2 {
		t.Fatalf("retained %d, want 2", len(a.Violations()))
	}
	err := a.Err()
	if err == nil {
		t.Fatal("Err() = nil with violations recorded")
	}
	msg := err.Error()
	for _, frag := range []string{"5 invariant violation", "link[3]", "state-lattice", "3 more"} {
		if !strings.Contains(msg, frag) {
			t.Fatalf("error %q missing %q", msg, frag)
		}
	}
	var ae *Error
	if !asError(err, &ae) || ae.Total != 5 {
		t.Fatalf("not a structured *Error: %v", err)
	}
}

// asError is a local errors.As to keep the test's imports minimal.
func asError(err error, target **Error) bool {
	e, ok := err.(*Error)
	if ok {
		*target = e
	}
	return ok
}

func TestSweepReportStampsSweepTime(t *testing.T) {
	a := New(Config{}, fixedClock(99))
	a.RegisterSweep(func(now sim.Time, report func(string, string, string)) {
		report("network", "conservation", "imbalance")
	})
	a.RunSweeps()
	vs := a.Violations()
	if len(vs) != 1 || vs[0].Time != 99 || vs[0].Component != "network" {
		t.Fatalf("violations = %v", vs)
	}
	if a.Err() == nil {
		t.Fatal("sweep violation not surfaced by Err")
	}
}

func TestSweepReentrancyGuard(t *testing.T) {
	a := New(Config{SampleEvery: 1, SweepEvery: 1}, fixedClock(0))
	depth := 0
	a.RegisterSweep(func(sim.Time, func(string, string, string)) {
		depth++
		if depth > 1 {
			t.Fatal("sweep reentered")
		}
		a.Sample() // a sweep whose reads trip an observation must not recurse
		depth--
	})
	a.Sample()
}

func TestCleanRunHasNilErr(t *testing.T) {
	a := New(Config{}, fixedClock(0))
	a.RegisterSweep(func(sim.Time, func(string, string, string)) {})
	for i := 0; i < 1000; i++ {
		a.Sample()
	}
	a.RunSweeps()
	if err := a.Err(); err != nil {
		t.Fatalf("clean run Err() = %v", err)
	}
}

// TestSampleMatchesModulo pins Sample's countdown counters to the
// modulo arithmetic they replace: observation n is sampled exactly when
// n%SampleEvery == 0 and sweeps run exactly when n%SweepEvery == 0,
// counting the Samples a sweep itself makes.
func TestSampleMatchesModulo(t *testing.T) {
	for _, c := range []struct{ sample, sweep uint64 }{{1, 1}, {1, 3}, {4, 1}, {3, 5}, {7, 4}, {64, 16}} {
		a := New(Config{SampleEvery: c.sample, SweepEvery: c.sweep}, fixedClock(0))
		var sweptAt []uint64
		a.RegisterSweep(func(sim.Time, func(string, string, string)) {
			sweptAt = append(sweptAt, a.Observations())
			a.Sample() // a sweep whose reads trip another observation
		})
		var wantSwept []uint64
		for i := 0; i < 200; i++ {
			n := a.Observations() + 1
			if n%c.sweep == 0 {
				wantSwept = append(wantSwept, n)
			}
			got := a.Sample()
			if want := a.Observations()%c.sample == 0; got != want {
				t.Fatalf("stride %d/%d: Sample at obs %d = %v, want %v", c.sample, c.sweep, a.Observations(), got, want)
			}
		}
		if len(sweptAt) != len(wantSwept) {
			t.Fatalf("stride %d/%d: swept at %v, want %v", c.sample, c.sweep, sweptAt, wantSwept)
		}
		for i := range wantSwept {
			if sweptAt[i] != wantSwept[i] {
				t.Fatalf("stride %d/%d: swept at %v, want %v", c.sample, c.sweep, sweptAt, wantSwept)
			}
		}
	}
}
