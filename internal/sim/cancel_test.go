package sim

import (
	"errors"
	"slices"
	"testing"
)

// chain schedules a self-perpetuating event chain so Run(until) always
// has work: each event re-schedules itself one nanosecond later.
func chain(k *Kernel) {
	var step func()
	step = func() { k.After(Nanosecond, step) }
	k.After(Nanosecond, step)
}

func TestSetCheckStopsRun(t *testing.T) {
	k := NewKernel()
	chain(k)
	stop := errors.New("stop requested")
	var calls int
	k.SetCheck(64, func() error {
		calls++
		if k.Processed() >= 200 {
			return stop
		}
		return nil
	})
	k.Run(Time(Millisecond))
	if err := k.Err(); !errors.Is(err, stop) {
		t.Fatalf("Err() = %v, want %v", err, stop)
	}
	if calls == 0 {
		t.Fatal("check never called")
	}
	// The stop must land within one check interval of the threshold.
	if got := k.Processed(); got < 200 || got > 200+64 {
		t.Fatalf("stopped after %d events, want within one 64-event interval past 200", got)
	}
	if k.Now() >= Time(Millisecond) {
		t.Fatalf("clock advanced to the horizon (%v) despite the stop", k.Now())
	}
	// A stopped kernel re-checks immediately on the next Run and stays
	// stopped while the check still fails.
	before := k.Processed()
	k.Run(Time(Millisecond))
	if k.Processed() != before {
		t.Fatalf("stopped kernel ran %d more events", k.Processed()-before)
	}
}

func TestSetCheckNilDisarms(t *testing.T) {
	k := NewKernel()
	chain(k)
	k.SetCheck(1, func() error { return errors.New("boom") })
	k.SetCheck(0, nil)
	k.Run(Time(100 * Nanosecond))
	if err := k.Err(); err != nil {
		t.Fatalf("disarmed kernel stopped: %v", err)
	}
	if k.Now() != Time(100*Nanosecond) {
		t.Fatalf("clock = %v, want the full horizon", k.Now())
	}
}

func TestSetCheckStrideRoundsUp(t *testing.T) {
	k := NewKernel()
	chain(k)
	var calls int
	k.SetCheck(100, func() error { // rounds up to 128
		calls++
		return nil
	})
	k.Run(Time(1000 * Nanosecond)) // 1000 events
	// Events 0, 128, 256, ... 896 plus the final aligned probe windows:
	// calls must be about processed/128, never per-event.
	if calls < 5 || calls > 12 {
		t.Fatalf("check ran %d times over %d events; want ~%d", calls, k.Processed(), k.Processed()/128)
	}
}

// TestSetCheckDeterminism pins that an armed-but-passing check changes
// nothing about the simulation: same events, same clock.
func TestSetCheckDeterminism(t *testing.T) {
	run := func(armed bool) (uint64, Time) {
		k := NewKernel()
		chain(k)
		if armed {
			k.SetCheck(0, func() error { return nil })
		}
		k.Run(Time(10 * Microsecond))
		return k.Processed(), k.Now()
	}
	n0, t0 := run(false)
	n1, t1 := run(true)
	if n0 != n1 || t0 != t1 {
		t.Fatalf("armed check perturbed the run: %d/%v vs %d/%v", n0, t0, n1, t1)
	}
}

// TestSetCheckCountsAcrossRuns pins that the check stride counts events
// across Run calls: a run stepped through many short Run calls is
// checked at the same processed-event counts as one Run to the end.
func TestSetCheckCountsAcrossRuns(t *testing.T) {
	const end = Time(Microsecond)
	checkedAt := func(step Time) []uint64 {
		k := NewKernel()
		chain(k)
		var at []uint64
		k.SetCheck(64, func() error {
			at = append(at, k.Processed())
			return nil
		})
		for k.Now() < end {
			k.Run(min(k.Now()+step, end))
		}
		return at
	}
	one := checkedAt(end)
	if len(one) != 16 {
		t.Fatalf("one Run checked at %v, want every 64 events from 0", one)
	}
	for _, step := range []Time{Time(Nanosecond), Time(7 * Nanosecond), Time(64 * Nanosecond)} {
		if got := checkedAt(step); !slices.Equal(got, one) {
			t.Fatalf("Run stepped by %v checked at %v, want %v", Duration(step), got, one)
		}
	}
}
