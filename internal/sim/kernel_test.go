package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKernelRunsEventsInTimeOrder(t *testing.T) {
	k := NewKernel()
	var got []int
	k.Schedule(30, func() { got = append(got, 3) })
	k.Schedule(10, func() { got = append(got, 1) })
	k.Schedule(20, func() { got = append(got, 2) })
	k.RunAll()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if k.Now() != 30 {
		t.Fatalf("clock = %v, want 30", k.Now())
	}
}

func TestKernelSameTimeEventsRunInInsertionOrder(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(100, func() { got = append(got, i) })
	}
	k.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("insertion order violated at %d: %v", i, got)
		}
	}
}

func TestKernelEventsCanScheduleEvents(t *testing.T) {
	k := NewKernel()
	depth := 0
	var chain func()
	chain = func() {
		depth++
		if depth < 5 {
			k.After(10, chain)
		}
	}
	k.Schedule(0, chain)
	k.RunAll()
	if depth != 5 {
		t.Fatalf("chained depth = %d, want 5", depth)
	}
	if k.Now() != 40 {
		t.Fatalf("clock = %v, want 40", k.Now())
	}
}

func TestKernelRunStopsAtBoundary(t *testing.T) {
	k := NewKernel()
	ran := map[Time]bool{}
	for _, at := range []Time{10, 20, 30} {
		at := at
		k.Schedule(at, func() { ran[at] = true })
	}
	k.Run(20)
	if !ran[10] || !ran[20] || ran[30] {
		t.Fatalf("boundary semantics wrong: %v", ran)
	}
	if k.Now() != 20 {
		t.Fatalf("clock = %v, want 20", k.Now())
	}
	if k.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", k.Pending())
	}
}

func TestKernelAdvancesClockToRunBoundaryWhenIdle(t *testing.T) {
	k := NewKernel()
	k.Run(500)
	if k.Now() != 500 {
		t.Fatalf("idle clock = %v, want 500", k.Now())
	}
}

func TestKernelPanicsOnPastEvent(t *testing.T) {
	k := NewKernel()
	k.Schedule(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.Schedule(50, func() {})
	})
	k.RunAll()
}

func TestKernelProcessedCount(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 7; i++ {
		k.Schedule(Time(i), func() {})
	}
	k.RunAll()
	if k.Processed() != 7 {
		t.Fatalf("processed = %d, want 7", k.Processed())
	}
}

func TestKernelDeterminism(t *testing.T) {
	run := func() []int {
		k := NewKernel()
		rng := NewRNG(7)
		var order []int
		for i := 0; i < 200; i++ {
			i := i
			k.Schedule(Time(rng.Intn(50)), func() { order = append(order, i) })
		}
		k.RunAll()
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestKernelRandomOrderMatchesSort drives the event queue with random
// schedule/step interleavings and checks events fire in nondecreasing time
// with insertion order preserved within an instant — the full ordering
// contract, against an oracle.
func TestKernelRandomOrderMatchesSort(t *testing.T) {
	k := NewKernel()
	rng := NewRNG(11)
	type stamp struct {
		at  Time
		idx int
	}
	var fired []stamp
	for i := 0; i < 500; i++ {
		i := i
		at := k.Now() + Time(rng.Intn(200))
		k.Schedule(at, func() { fired = append(fired, stamp{at, i}) })
		if rng.Intn(3) == 0 {
			k.Step() // interleave pops so the heap shrinks and regrows
		}
	}
	k.RunAll()
	if len(fired) != 500 {
		t.Fatalf("fired %d events, want 500", len(fired))
	}
	for i := 1; i < len(fired); i++ {
		a, b := fired[i-1], fired[i]
		if b.at < a.at {
			t.Fatalf("time order violated at %d: %v after %v", i, b.at, a.at)
		}
		if b.at == a.at && b.idx < a.idx {
			t.Fatalf("insertion order violated at %d: #%d after #%d", i, b.idx, a.idx)
		}
	}
}

// TestKernelStepClearsRetiredSlots is the regression test for the
// container/heap-era leak where eventHeap.Pop left the popped slot's fn
// alive in the backing array, pinning every retired closure's captured
// state for the life of the run. Both queue halves — wheel slots and the
// overflow heap — must zero vacated entries on pop.
func TestKernelStepClearsRetiredSlots(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 64; i++ {
		payload := make([]byte, 1<<10) // captured state the slot would pin
		k.Schedule(Time(i%7), func() { payload[0]++ })
	}
	for i := 0; i < 16; i++ {
		payload := make([]byte, 1<<10)
		// Far past the wheel horizon: exercises the overflow heap.
		k.Schedule(Time(i)*Microsecond, func() { payload[0]++ })
	}
	k.RunAll()
	for idx := range k.wheel {
		spare := k.wheel[idx].ev[:cap(k.wheel[idx].ev)]
		for i := range spare {
			if spare[i].act != nil || spare[i].key != 0 {
				t.Fatalf("retired wheel slot %d entry %d still populated (key=%#x act=%v)",
					idx, i, spare[i].key, spare[i].act != nil)
			}
		}
	}
	spare := k.overflow[:cap(k.overflow)]
	for i := range spare {
		if spare[i].act != nil || spare[i].at != 0 || spare[i].seq != 0 {
			t.Fatalf("retired overflow slot %d still populated (at=%v seq=%d act=%v)",
				i, spare[i].at, spare[i].seq, spare[i].act != nil)
		}
	}
}

func nop() {}

// TestKernelScheduleStepZeroAllocs proves the queue's headline property:
// once the wheel slots and overflow heap have grown, a schedule+step
// cycle allocates nothing — no interface boxing, no container/heap
// indirection.
func TestKernelScheduleStepZeroAllocs(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 4096; i++ {
		k.Schedule(Time(i), nop) // deep steady-state queue
	}
	allocs := testing.AllocsPerRun(1000, func() {
		k.Schedule(k.Now()+100, nop)
		k.Step()
	})
	if allocs != 0 {
		t.Fatalf("schedule+step allocates %.1f objects/op, want 0", allocs)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ps"},
		{1500, "1.50ns"},
		{2 * Microsecond, "2.00us"},
		{3 * Millisecond, "3.000ms"},
		{2 * Second, "2.0000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if got := (1500 * Nanosecond).Nanoseconds(); got != 1500 {
		t.Errorf("Nanoseconds = %v", got)
	}
	if got := (250 * Millisecond).Seconds(); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("Seconds = %v", got)
	}
	if got := FromNanos(0.64); got != 640 {
		t.Errorf("FromNanos(0.64) = %v, want 640", got)
	}
	if got := FromNanos(3.2); got != 3200 {
		t.Errorf("FromNanos(3.2) = %v, want 3200", got)
	}
}

func TestFromNanosPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FromNanos(-1) did not panic")
		}
	}()
	FromNanos(-1)
}

func TestRNGDeterministicPerSeed(t *testing.T) {
	a, b := NewRNG(99), NewRNG(99)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(100)
	same := 0
	a = NewRNG(99)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collide too often: %d/100", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			f := r.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGFloat64Mean(t *testing.T) {
	r := NewRNG(1)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(5)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) covered only %d values", len(seen))
	}
}

func TestRNGIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(2)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.Exp(40)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-40) > 1 {
		t.Fatalf("Exp mean = %v, want ~40", mean)
	}
}
