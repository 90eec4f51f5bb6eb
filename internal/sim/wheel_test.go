package sim

import (
	"strings"
	"testing"
	"unsafe"
)

// TestWheelMatchesHeapOrdering is the differential property test for the
// timing wheel: a Kernel (wheel + overflow) and a bare heapQ oracle are
// driven with the same randomized schedule/pop script — deltas straddling
// slot boundaries, the wheel horizon, and far-future spill-over, plus
// same-instant ties — and must fire every event in the same (at, seq)
// order.
func TestWheelMatchesHeapOrdering(t *testing.T) {
	// Deltas are picked to hit the interesting edges: zero (same-instant
	// tie), sub-slot, exact slot width, hop/DRAM-scale, one slot under
	// and over the 262 ns horizon, and far-future timers.
	deltas := []Time{0, 1, 63, 64, 640, 3200, 40_000,
		numSlots<<granularityBits - 1, numSlots << granularityBits,
		numSlots<<granularityBits + 64, 1_000_000, 100_000_000}
	for trial := uint64(0); trial < 10; trial++ {
		rng := NewRNG(100 + trial)
		k := NewKernel()
		var h heapQ
		var hnow Time
		var hseq uint64
		var got, want []int
		id := 0
		for op := 0; op < 5000; op++ {
			if rng.Intn(3) > 0 {
				d := deltas[rng.Intn(len(deltas))]
				if rng.Intn(4) == 0 {
					d += Time(rng.Intn(1000))
				}
				myID := id
				id++
				k.Schedule(k.Now()+d, func() { got = append(got, myID) })
				hseq++
				h.push(event{at: hnow + d, seq: hseq,
					act: funcAction(func() { want = append(want, myID) })})
			} else {
				k.Step()
				if len(h) > 0 {
					e := h.pop()
					hnow = e.at
					e.act.Act()
				}
			}
		}
		k.RunAll()
		for len(h) > 0 {
			e := h.pop()
			hnow = e.at
			e.act.Act()
		}
		if len(got) != id || len(want) != id {
			t.Fatalf("trial %d: fired %d/%d events, oracle %d", trial, len(got), id, len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: order diverges from heap oracle at %d: wheel fired #%d, heap #%d",
					trial, i, got[i], want[i])
			}
		}
		if k.Now() != hnow {
			t.Fatalf("trial %d: clocks diverged: wheel %s, heap %s", trial, k.Now(), hnow)
		}
	}
}

// TestWheelOverflowSeqTieAtSameInstant pins the subtle ordering case the
// two-structure design must get right: an event that spilled to the
// overflow heap (scheduled far ahead, small seq) and a wheel-resident
// event at the exact same instant (scheduled late, large seq) must still
// fire in seq order — overflow first.
func TestWheelOverflowSeqTieAtSameInstant(t *testing.T) {
	k := NewKernel()
	var got []int
	at := Time(1_000_000_000) // 1 ms: far past the horizon at schedule time
	k.Schedule(at, func() { got = append(got, 1) })
	k.Run(at - 10*Nanosecond)
	// Now within the horizon: this lands in the wheel with a larger seq.
	k.Schedule(at, func() { got = append(got, 2) })
	k.Schedule(at+1, func() { got = append(got, 3) })
	k.RunAll()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("overflow/wheel same-instant ordering wrong: %v", got)
	}
}

// TestWheelFarFutureTimers exercises the spill-over path end to end:
// timers far past the horizon fire in order and interleave correctly
// with dense near-future traffic.
func TestWheelFarFutureTimers(t *testing.T) {
	k := NewKernel()
	var fired []Time
	for _, at := range []Time{100 * Microsecond, 10 * Microsecond, Millisecond, 500} {
		at := at
		k.Schedule(at, func() { fired = append(fired, at) })
	}
	hops := 0
	var hop func()
	hop = func() {
		hops++
		if hops < 10000 {
			k.After(640, hop) // flit-scale events throughout
		}
	}
	k.Schedule(0, hop)
	k.RunAll()
	if hops != 10000 {
		t.Fatalf("hops = %d, want 10000", hops)
	}
	wantOrder := []Time{500, 10 * Microsecond, 100 * Microsecond, Millisecond}
	if len(fired) != len(wantOrder) {
		t.Fatalf("fired %d timers, want %d", len(fired), len(wantOrder))
	}
	for i, at := range wantOrder {
		if fired[i] != at {
			t.Fatalf("timer order: fired[%d] = %s, want %s", i, fired[i], at)
		}
	}
}

// countAction is a pooled Action for the zero-alloc scheduling tests.
type countAction struct{ n int }

func (c *countAction) Act() { c.n++ }

// TestKernelScheduleActionZeroAllocs proves the pooled-action path the
// simulation layer's hot events use: scheduling a reusable Action value
// allocates nothing at all, even before the queue has warmed up.
func TestKernelScheduleActionZeroAllocs(t *testing.T) {
	k := NewKernel()
	act := &countAction{}
	// Warm every wheel slot's backing array — one event per slot across a
	// full revolution: steady state begins once every slot has grown.
	for i := 0; i < numSlots; i++ {
		k.AfterAction(Duration(i)<<granularityBits, act)
	}
	k.RunAll()
	allocs := testing.AllocsPerRun(1000, func() {
		k.AfterAction(100, act)
		k.Step()
	})
	if allocs != 0 {
		t.Fatalf("AfterAction+Step allocates %.1f objects/op, want 0", allocs)
	}
	if act.n == 0 {
		t.Fatal("pooled action never ran")
	}
}

// TestKernelOverflowScheduleStepZeroAllocs extends the steady-state
// zero-alloc contract to the spill-over heap: once grown, far-future
// scheduling is allocation-free too.
func TestKernelOverflowScheduleStepZeroAllocs(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 512; i++ {
		k.Schedule(Time(i)*Microsecond, nop)
	}
	allocs := testing.AllocsPerRun(400, func() {
		k.Schedule(k.Now()+Millisecond, nop)
		k.Step()
	})
	if allocs != 0 {
		t.Fatalf("far-future schedule+step allocates %.1f objects/op, want 0", allocs)
	}
}

// TestCheckInvariantsOnPopulatedWheel drives a mixed near/far queue and
// audits it at every step, then corrupts the structure and checks the
// audit notices.
func TestCheckInvariantsOnPopulatedWheel(t *testing.T) {
	k := NewKernel()
	rng := NewRNG(3)
	for i := 0; i < 300; i++ {
		d := Time(rng.Intn(200_000))
		if rng.Intn(10) == 0 {
			d += 10 * Microsecond
		}
		k.Schedule(k.Now()+d, nop)
		if err := k.CheckInvariants(); err != nil {
			t.Fatalf("invariants after schedule %d: %v", i, err)
		}
		if rng.Intn(3) == 0 {
			k.Step()
			if err := k.CheckInvariants(); err != nil {
				t.Fatalf("invariants after step %d: %v", i, err)
			}
		}
	}

	// Corruption 1: keys out of order in a slot not marked dirty. (A
	// wheel entry's lap and slot are implied by where it is filed, so the
	// horizon and wrong-slot corruptions of an (at, act) entry cannot be
	// expressed over packed keys.)
	k2 := NewKernel()
	k2.Schedule(100, nop)
	k2.Schedule(200, nop)
	s2 := &k2.wheel[0]
	s2.ev[0].key, s2.ev[1].key = s2.ev[1].key, s2.ev[0].key
	if err := k2.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "order violated") {
		t.Errorf("slot key disorder not detected: %v", err)
	}
	// Corruption 2: occupancy bit cleared under a pending event.
	k3 := NewKernel()
	k3.Schedule(100, nop)
	idx := (100 >> granularityBits) & slotMask
	k3.occupied[idx>>6] &^= 1 << uint(idx&63)
	if err := k3.CheckInvariants(); err == nil {
		t.Error("occupancy desync not detected")
	}
	// Corruption 3: overflow heap order broken.
	k4 := NewKernel()
	for i := 1; i <= 8; i++ {
		k4.Schedule(Time(i)*Millisecond, nop)
	}
	k4.overflow[0], k4.overflow[len(k4.overflow)-1] = k4.overflow[len(k4.overflow)-1], k4.overflow[0]
	if err := k4.CheckInvariants(); err == nil {
		t.Error("overflow heap disorder not detected")
	}
}

// TestWheelEntryIs24Bytes pins the packed entry size: a separate seq
// field would grow each entry to 32 bytes, a third more cache footprint
// on the insert path, whose entry write is usually a cache miss.
func TestWheelEntryIs24Bytes(t *testing.T) {
	if n := unsafe.Sizeof(wev{}); n != 24 {
		t.Fatalf("wheel entry is %d bytes, want 24", n)
	}
}

// TestReservedSeqMatchesHeapOrdering is the differential property test
// for reserved positions: ScheduleAction, ReserveSeq and a later
// ScheduleActionSeq are interleaved at random, instants are reused so
// events tie at the same time across the wheel and the overflow heap
// (a seq reserved while its instant lay past the horizon and filed once
// it is inside), and some reservations are never filed. Every filed
// event must dispatch in exactly the heap oracle's (at, seq) order.
func TestReservedSeqMatchesHeapOrdering(t *testing.T) {
	deltas := []Time{0, 1, 700, 2048, 40_000,
		numSlots<<granularityBits - 1, numSlots << granularityBits,
		numSlots<<granularityBits + 64, 3_000_000, 50_000_000}
	type reservation struct {
		seq uint64
		at  Time
		act Action
	}
	for trial := uint64(0); trial < 10; trial++ {
		rng := NewRNG(500 + trial)
		k := NewKernel()
		var h heapQ
		var got, want []int
		var unfiled []reservation
		var instants []Time
		id := 0
		pickAt := func() Time {
			if len(instants) > 0 && rng.Intn(3) == 0 {
				if at := instants[rng.Intn(len(instants))]; at >= k.Now() {
					return at
				}
			}
			at := k.Now() + deltas[rng.Intn(len(deltas))] + Time(rng.Intn(3))
			instants = append(instants, at)
			return at
		}
		fileAt := func(i int) {
			r := unfiled[i]
			unfiled[i] = unfiled[len(unfiled)-1]
			unfiled = unfiled[:len(unfiled)-1]
			k.ScheduleActionSeq(r.at, r.seq, r.act)
		}
		// fileSeq files seq's reservation if it is still unfiled.
		fileSeq := func(seq uint64) {
			for i := range unfiled {
				if unfiled[i].seq == seq {
					fileAt(i)
					return
				}
			}
		}
		for op := 0; op < 6000; op++ {
			switch rng.Intn(6) {
			case 0, 1: // plain schedule
				at, myID := pickAt(), id
				id++
				k.ScheduleAction(at, funcAction(func() { got = append(got, myID) }))
				h.push(event{at: at, seq: k.seq, act: funcAction(func() { want = append(want, myID) })})
			case 2: // reserve; one in four is abandoned, like a retired cover
				at, myID := pickAt(), id
				seq := k.ReserveSeq()
				if rng.Intn(4) == 0 {
					continue
				}
				id++
				unfiled = append(unfiled, reservation{seq, at, funcAction(func() { got = append(got, myID) })})
				h.push(event{at: at, seq: seq, act: funcAction(func() { want = append(want, myID) })})
			case 3: // file some reservation early
				if len(unfiled) > 0 {
					fileAt(rng.Intn(len(unfiled)))
				}
			default: // step both, filing the oracle's head first if it is unfiled
				if len(h) == 0 {
					continue
				}
				fileSeq(h[0].seq)
				k.Step()
				h.pop().act.Act()
			}
		}
		for len(h) > 0 {
			fileSeq(h[0].seq)
			k.Step()
			h.pop().act.Act()
		}
		if k.Pending() != 0 || len(got) != id || len(want) != id {
			t.Fatalf("trial %d: fired %d/%d events, oracle %d, %d left pending",
				trial, len(got), id, len(want), k.Pending())
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: order diverges from heap oracle at %d: kernel fired #%d, heap #%d",
					trial, i, got[i], want[i])
			}
		}
	}
}

// TestReservedSeqBeatsOverflowTie pins the tie the reserved path adds:
// a seq reserved for instant T while T lay past the horizon, then filed
// into the wheel once T is near, must dispatch before an overflow event
// at T scheduled after the reservation.
func TestReservedSeqBeatsOverflowTie(t *testing.T) {
	k := NewKernel()
	var got []int
	at := Time(1_000_000_000)
	seq := k.ReserveSeq()
	k.Schedule(at, func() { got = append(got, 2) })
	k.Run(at - 10*Nanosecond)
	k.ScheduleActionSeq(at, seq, funcAction(func() { got = append(got, 1) }))
	k.Schedule(at, func() { got = append(got, 3) })
	if err := k.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	k.RunAll()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("reserved/overflow same-instant ordering wrong: %v", got)
	}
}

// TestScheduleActionSeqRefusesPassedPositions checks the guard on
// reserved positions: a position before now, one at now at or before
// the event being dispatched, and a seq never issued all panic, while
// a later seq at now is accepted.
func TestScheduleActionSeqRefusesPassedPositions(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	k := NewKernel()
	early := k.ReserveSeq()
	k.Schedule(100, func() {
		mustPanic("before the running event at now", func() { k.ScheduleActionSeq(100, early, funcAction(nop)) })
		mustPanic("the running event's own position", func() { k.ScheduleActionSeq(100, k.nowSeq, funcAction(nop)) })
		mustPanic("before now", func() { k.ScheduleActionSeq(99, k.ReserveSeq(), funcAction(nop)) })
		k.ScheduleActionSeq(100, k.ReserveSeq(), funcAction(nop)) // after the running event: fine
	})
	k.Step()
	if k.Pending() != 1 {
		t.Fatalf("pending = %d, want the one accepted event", k.Pending())
	}
	mustPanic("unissued seq", func() { k.ScheduleActionSeq(200, k.seq+1, funcAction(nop)) })
	mustPanic("zero seq", func() { k.ScheduleActionSeq(200, 0, funcAction(nop)) })
	k.RunAll()
}
