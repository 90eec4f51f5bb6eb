package sim

import (
	"testing"
)

// realisticDelta draws an event delta from the distribution a sweep
// actually produces, so heap-vs-wheel comparisons are honest rather than
// uniform-random: the mass sits on sub-ns flit/serialization times and
// few-to-tens-of-ns SERDES/router/DRAM latencies and think jitter, with
// a thin tail of ROO off-checks and far-future management timers.
func realisticDelta(rng *RNG) Time {
	switch p := rng.Intn(1000); {
	case p < 450: // flit serialization / router cycles: 0.64–3.2 ns
		return Time(640 + 640*rng.Intn(5))
	case p < 700: // SERDES, DRAM timing params: 3–30 ns
		return Time(3_000 + rng.Intn(27_000))
	case p < 900: // think jitter: exponential, ~5 ns mean
		return FromNanos(rng.Exp(5))
	case p < 960: // wakeups: 14–32 ns
		return Time(14_000 + rng.Intn(18_000))
	case p < 995: // ROO off-checks: 32–2048 ns thresholds
		return Time(32_000 << uint(2*rng.Intn(4)))
	default: // epoch/burst/timeout timers: 1–100 us
		return Time(1_000_000 * (1 + rng.Intn(100)))
	}
}

// benchActs keeps the scheduled work identical across queue benchmarks.
var benchAct Action = funcAction(func() {})

// tracedPendingDepth is the peak pending-event count of the benchmark's
// simulator workloads in traced runs (sim.pending_max: 112 on the
// managed daisy chain, 111 on the sparse ternary tree, 31 on the
// write-heavy star). deepPendingDepth is the older, deeper shape the
// first wheel benchmarks were sized at, before ROO off-check covers cut
// the pending set.
//
// Geometry notes: the wheel holds at most numSlots·slotCap = 1024 events
// within its 65.5 ns horizon, and these fixed-depth draws keep most of
// their pending events past it. In steady state the realistic draw at
// tracedPendingDepth leaves about 3 events in the wheel and 109 in the
// overflow heap (the 1–100 µs timers live longest), at deepPendingDepth
// about 370 and 3,730 with a few dozen slots full, and the uniform draw
// about 390 and 3,700. The benchmark's simulator cells send 0.6–2.8% of
// their events to the heap, so these benchmarks weigh the heap far more
// than a simulation does.
const (
	tracedPendingDepth = 112
	deepPendingDepth   = 4096
)

// benchRealisticWheel measures steady-state schedule+step on the
// timing-wheel kernel under the realistic delta distribution with depth
// events in flight.
func benchRealisticWheel(b *testing.B, depth int) {
	k := NewKernel()
	rng := NewRNG(7)
	for i := 0; i < depth; i++ {
		k.ScheduleAction(k.Now()+realisticDelta(rng), benchAct)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.ScheduleAction(k.Now()+realisticDelta(rng), benchAct)
		k.Step()
	}
}

// benchRealisticHeap is the identical workload on the bare 4-ary heap
// (the pre-wheel event queue, still used as the wheel's spill-over),
// including the same dispatch call, so the two differ only in queue
// structure.
func benchRealisticHeap(b *testing.B, depth int) {
	var h heapQ
	var now Time
	var seq uint64
	rng := NewRNG(7)
	push := func(at Time) {
		seq++
		h.push(event{at: at, seq: seq, act: benchAct})
	}
	for i := 0; i < depth; i++ {
		push(now + realisticDelta(rng))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		push(now + realisticDelta(rng))
		e := h.pop()
		now = e.at
		e.act.Act()
	}
}

func BenchmarkQueueRealisticWheel(b *testing.B) { benchRealisticWheel(b, deepPendingDepth) }
func BenchmarkQueueRealisticHeap(b *testing.B)  { benchRealisticHeap(b, deepPendingDepth) }

// BenchmarkQueueRealisticTraced* run the same workloads at the depth
// real runs reach.
func BenchmarkQueueRealisticTracedWheel(b *testing.B) { benchRealisticWheel(b, tracedPendingDepth) }
func BenchmarkQueueRealisticTracedHeap(b *testing.B)  { benchRealisticHeap(b, tracedPendingDepth) }

// BenchmarkQueueUniformWheel / Heap keep the old uniform-random
// comparison for contrast: uniform deltas are the heap's best case
// relative to its real workload, and the wheel should still win.
func BenchmarkQueueUniformWheel(b *testing.B) {
	k := NewKernel()
	rng := NewRNG(9)
	for i := 0; i < 4096; i++ {
		k.ScheduleAction(k.Now()+Time(rng.Intn(200_000)), benchAct)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.ScheduleAction(k.Now()+Time(rng.Intn(200_000)), benchAct)
		k.Step()
	}
}

func BenchmarkQueueUniformHeap(b *testing.B) {
	var h heapQ
	var now Time
	var seq uint64
	rng := NewRNG(9)
	push := func(at Time) {
		seq++
		h.push(event{at: at, seq: seq, act: benchAct})
	}
	for i := 0; i < 4096; i++ {
		push(now + Time(rng.Intn(200_000)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		push(now + Time(rng.Intn(200_000)))
		e := h.pop()
		now = e.at
		e.act.Act()
	}
}
