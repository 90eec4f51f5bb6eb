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
// order. Bursts of more than slotCap events into one slot overflow it to
// the heap; steps between bursts leave slots part-drained, so a later
// burst compacts them; and plain schedules reuse a burst's instant, so a
// full slot's heap spills tie with wheel entries at one instant.
func TestWheelMatchesHeapOrdering(t *testing.T) {
	// Deltas are picked to hit the interesting edges: zero (same-instant
	// tie), sub-slot, exact slot width, hop/DRAM-scale, one slot under
	// and over the 65 ns horizon, and far-future timers.
	deltas := []Time{0, 1, 63, 1 << granularityBits, 640, 3200, 40_000,
		numSlots<<granularityBits - 1, numSlots << granularityBits,
		numSlots<<granularityBits + 64, 1_000_000, 100_000_000}
	burstDeltas := []Time{0, 1, 200, 640, 3200}
	var spills, compactions int
	for trial := uint64(0); trial < 10; trial++ {
		rng := NewRNG(100 + trial)
		k := NewKernel()
		var h heapQ
		var hnow, burstAt Time
		var hseq uint64
		var got, want []int
		id := 0
		schedule := func(at Time) {
			if at>>granularityBits-k.Now()>>granularityBits < numSlots {
				if s := &k.wheel[(at>>granularityBits)&slotMask]; s.n == slotCap {
					if s.head == 0 {
						spills++
					} else {
						compactions++
					}
				}
			}
			myID := id
			id++
			k.Schedule(at, func() { got = append(got, myID) })
			hseq++
			h.push(event{at: at, seq: hseq,
				act: funcAction(func() { want = append(want, myID) })})
		}
		for op := 0; op < 5000; op++ {
			switch r := rng.Intn(30); {
			case r == 0: // a burst past slotCap, with ties, into one slot
				burstAt = k.Now() + burstDeltas[rng.Intn(len(burstDeltas))]
				for n := slotCap + 1 + rng.Intn(slotCap); n > 0; n-- {
					schedule(burstAt + Time(rng.Intn(3)))
				}
				if err := k.CheckInvariants(); err != nil {
					t.Fatalf("trial %d: after burst: %v", trial, err)
				}
			case r < 5 && burstAt >= k.Now(): // tie with the last burst
				schedule(burstAt)
			case r < 20:
				d := deltas[rng.Intn(len(deltas))]
				if rng.Intn(4) == 0 {
					d += Time(rng.Intn(1000))
				}
				schedule(hnow + d)
			default:
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
	t.Logf("%d heap spills, %d compactions", spills, compactions)
	if spills == 0 || compactions == 0 {
		t.Fatalf("script never exercised the full-slot paths: %d heap spills, %d compactions", spills, compactions)
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
// allocates nothing at all, even on a fresh kernel — wheel slots are
// fixed arrays, so there is nothing to warm up.
func TestKernelScheduleActionZeroAllocs(t *testing.T) {
	k := NewKernel()
	act := &countAction{}
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
	// Corruption 3: a retired entry left populated, as a compaction
	// that forgot to clear what it vacated would leave it.
	k4 := NewKernel()
	k4.Schedule(100, nop)
	k4.Schedule(200, nop)
	k4.Step()
	k4.wheel[0].ev[0] = wev{key: 1, act: funcAction(nop)}
	if err := k4.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "not cleared") {
		t.Errorf("uncleared retired entry not detected: %v", err)
	}
	// Corruption 4: overflow heap order broken.
	k5 := NewKernel()
	for i := 1; i <= 8; i++ {
		k5.Schedule(Time(i)*Millisecond, nop)
	}
	k5.overflow[0], k5.overflow[len(k5.overflow)-1] = k5.overflow[len(k5.overflow)-1], k5.overflow[0]
	if err := k5.CheckInvariants(); err == nil {
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

// TestKernelFitsIn32KiB pins the kernel's footprint. Every cell builds a
// kernel, and bench's setup_s times those builds: when the run-time
// garbage of growable wheel slots went away, fewer GC cycles meant the
// builds after each cell landed on heap pages nothing had touched yet,
// and only a smaller build kept setup_s from rising. A kernel that grows
// back past 32 KiB gives that margin up.
func TestKernelFitsIn32KiB(t *testing.T) {
	if n := unsafe.Sizeof(Kernel{}); n > 32<<10 {
		t.Fatalf("Kernel is %d bytes, want at most %d", n, 32<<10)
	}
}

// TestReservedSeqMatchesHeapOrdering is the differential property test
// for reserved positions: ScheduleAction, ReserveSeq and a later
// ScheduleActionSeq are interleaved at random, instants are reused so
// events tie at the same time across the wheel and the overflow heap
// (a seq reserved while its instant lay past the horizon and filed once
// it is inside), and some reservations are never filed. Bursts past
// slotCap fill one slot at an instant that reservations are held for,
// so those seqs are filed late into a full slot and spill to the heap.
// Every filed event must dispatch in exactly the heap oracle's (at, seq)
// order.
func TestReservedSeqMatchesHeapOrdering(t *testing.T) {
	deltas := []Time{0, 1, 700, 2048, 40_000,
		numSlots<<granularityBits - 1, numSlots << granularityBits,
		numSlots<<granularityBits + 64, 3_000_000, 50_000_000}
	type reservation struct {
		seq uint64
		at  Time
		act Action
	}
	fullFiles := 0
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
			if r.at>>granularityBits-k.Now()>>granularityBits < numSlots &&
				k.wheel[(r.at>>granularityBits)&slotMask].n == slotCap {
				fullFiles++
			}
			k.ScheduleActionSeq(r.at, r.seq, r.act)
		}
		schedule := func(at Time) {
			myID := id
			id++
			k.ScheduleAction(at, funcAction(func() { got = append(got, myID) }))
			h.push(event{at: at, seq: k.seq, act: funcAction(func() { want = append(want, myID) })})
		}
		reserve := func(at Time) {
			seq := k.ReserveSeq()
			if rng.Intn(4) == 0 {
				return
			}
			myID := id
			id++
			unfiled = append(unfiled, reservation{seq, at, funcAction(func() { got = append(got, myID) })})
			h.push(event{at: at, seq: seq, act: funcAction(func() { want = append(want, myID) })})
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
			switch rng.Intn(13) {
			case 0, 1, 2, 3: // plain schedule
				schedule(pickAt())
			case 4, 5: // reserve; one in four is abandoned, like a retired cover
				reserve(pickAt())
			case 6: // reserve at one instant, then fill its slot past slotCap
				at := k.Now() + Time(rng.Intn(4000))
				instants = append(instants, at)
				for n := 1 + rng.Intn(3); n > 0; n-- {
					reserve(at)
				}
				for n := slotCap + 1 + rng.Intn(slotCap); n > 0; n-- {
					schedule(at + Time(rng.Intn(2)))
				}
			case 7, 8: // file some reservation early
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
	t.Logf("%d reserved seqs filed into a full slot", fullFiles)
	if fullFiles == 0 {
		t.Fatal("script never filed a reserved seq into a full slot")
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

// TestPassedAcrossRun checks Passed against the dispatch order, and the
// edge Run leaves when it advances the clock past a drained queue: a
// position reserved at exactly until reads as passed afterwards, because
// an event scheduled there at reservation time would have run inside
// that Run, so ScheduleActionSeq refuses it. RunAll's drained queue is
// the same edge.
func TestPassedAcrossRun(t *testing.T) {
	k := NewKernel()
	var atRun bool
	before := k.ReserveSeq()
	k.Schedule(100, func() {
		atRun = k.Passed(100, before) && k.Passed(99, k.seq+1) && !k.Passed(100, k.seq+1) && !k.Passed(101, before)
	})
	k.Run(50)
	if k.Passed(100, before) {
		t.Fatal("position at 100 passed at 50")
	}
	k.Run(100)
	if !atRun {
		t.Error("Passed inside a dispatch disagrees with the (at, seq) order")
	}

	// Reserve at 300 with nothing else pending at 300: Run(300) drains the
	// queue at 200 and advances the clock to 300.
	pos := k.ReserveSeq()
	k.Schedule(200, func() {})
	later := k.ReserveSeq()
	k.Run(300)
	if k.Now() != 300 || k.Pending() != 0 {
		t.Fatalf("now %v pending %d, want 300 and 0", k.Now(), k.Pending())
	}
	if !k.Passed(300, pos) || !k.Passed(300, later) {
		t.Error("positions reserved at until do not read as passed after Run(until)")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ScheduleActionSeq accepted a position Run(until) already passed")
			}
		}()
		k.ScheduleActionSeq(300, pos, funcAction(nop))
	}()
	if k.Passed(300, k.seq+1) {
		t.Error("a seq not yet issued reads as passed")
	}
	// A fresh event at until still runs, after everything already issued.
	ran := false
	k.Schedule(300, func() { ran = true })
	k.RunAll()
	if !ran {
		t.Error("event scheduled at until after Run(until) did not run")
	}
	// RunAll drains the queue the same way: a position reserved at the
	// last event's instant, after it, has passed once nothing is left.
	var last uint64
	k.Schedule(350, func() { last = k.ReserveSeq() })
	k.RunAll()
	if !k.Passed(350, last) {
		t.Error("a position reserved at the final instant does not read as passed after RunAll")
	}
	// Run with until behind the clock leaves pending positions at now
	// filable.
	k.Schedule(400, func() {})
	k.Step()
	next := k.ReserveSeq()
	k.Run(350)
	if k.Passed(400, next) {
		t.Error("Run(until < now) marked positions at now as passed")
	}
	k.ScheduleActionSeq(400, next, funcAction(nop))
	k.RunAll()
}
