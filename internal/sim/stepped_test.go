package sim

import (
	"sort"
	"testing"
)

// steppedModel is a self-scheduling event mix shaped like the
// simulator's: every dispatch files successors on the wheel (short
// delays), in the overflow heap (delays past the horizon, and bursts
// that fill a slot), in the fixed-delay FIFO (AfterFixed), and at
// reserved positions (ReserveSeq, then ScheduleActionSeq from a later
// dispatch unless the kernel has Passed the position, the DRAM vault's
// pattern). Every draw comes from one RNG, so a single dispatch out of
// order changes everything after it.
type steppedModel struct {
	k        *Kernel
	rng      *RNG
	budget   int // successors left to file
	log      []steppedDispatch
	reserved []steppedReservation
	instants []Time // every instant something was filed or reserved for

	// Path counts: FIFO files, reservations filed and dropped as
	// passed, and dispatches that found the overflow heap in use.
	fifo, filed, passed, overflowed int
}

type steppedDispatch struct {
	at  Time
	seq uint64
}

type steppedReservation struct {
	at  Time
	seq uint64
}

type steppedAct struct{ m *steppedModel }

func (a *steppedAct) Act() { a.m.fire() }

func newSteppedModel(seed uint64, budget int) *steppedModel {
	m := &steppedModel{k: NewKernel(), rng: NewRNG(seed), budget: budget}
	for i := 0; i < 8; i++ {
		m.file(Time(m.rng.Intn(2000)))
	}
	return m
}

// file schedules one successor d from now through a structure the RNG
// picks.
func (m *steppedModel) file(d Time) {
	m.budget--
	at := m.k.now + d
	m.instants = append(m.instants, at)
	a := &steppedAct{m}
	switch m.rng.Intn(4) {
	case 0:
		m.k.AfterFixed(fifoDelay, a)
		m.instants[len(m.instants)-1] = m.k.now + fifoDelay
		m.fifo++
	case 1:
		m.reserved = append(m.reserved, steppedReservation{at, m.k.ReserveSeq()})
	default:
		m.k.ScheduleAction(at, a)
	}
}

func (m *steppedModel) fire() {
	m.log = append(m.log, steppedDispatch{m.k.now, m.k.nowSeq})
	if len(m.k.overflow) > 0 {
		m.overflowed++
	}
	// File or retire the reservations the RNG picks, in reservation
	// order; one the kernel has passed is dropped, as a vault that
	// finds its issue position passed issues inline.
	kept := m.reserved[:0]
	for _, r := range m.reserved {
		switch {
		case m.rng.Intn(2) == 0:
			kept = append(kept, r)
		case m.k.Passed(r.at, r.seq):
			m.passed++
		default:
			m.k.ScheduleActionSeq(r.at, r.seq, &steppedAct{m})
			m.filed++
		}
	}
	m.reserved = kept
	if m.budget <= 0 {
		return
	}
	switch r := m.rng.Intn(20); {
	case r == 0: // a burst that overflows one wheel slot
		d := Time(m.rng.Intn(40_000))
		for i := 0; i < slotCap+2; i++ {
			m.file(d)
		}
	case r < 3: // past the wheel horizon
		m.file(numSlots<<granularityBits + Time(m.rng.Intn(3_000_000)))
	default:
		m.file(Time(m.rng.Intn(60_000)))
		if m.rng.Intn(3) == 0 {
			m.file(0) // same instant as this dispatch
		}
	}
}

// TestSteppedRunMatchesOneRun pins the invariant metrics.Registry.Run
// rests on: stepping Run through any boundaries, including boundaries
// that tie with event instants, dispatches the identical (at, seq)
// sequence as one Run to the same end, and leaves the kernel in the same
// state.
func TestSteppedRunMatchesOneRun(t *testing.T) {
	var tied, fifo, filed, passed, overflowed int
	for seed := uint64(1); seed <= 20; seed++ {
		one := newSteppedModel(seed, 4000)
		one.k.Run(1 << 40)
		last := one.log[len(one.log)-1].at
		end := last + 1 + Time(seed%2)*(last/2) // just past the last dispatch, or well past
		one = newSteppedModel(seed, 4000)
		one.k.Run(end)
		fifo, filed, passed, overflowed = fifo+one.fifo, filed+one.filed, passed+one.passed, overflowed+one.overflowed
		dispatched := map[Time]bool{}
		for _, d := range one.log {
			dispatched[d.at] = true
		}

		// Boundaries: instants events were filed or reserved for (ties),
		// one picosecond either side of some, and arbitrary times.
		rng := NewRNG(seed + 1000)
		var bounds []Time
		for _, at := range one.instants {
			if at < end && rng.Intn(8) == 0 {
				bounds = append(bounds, at, at-1+Time(rng.Intn(3)))
			}
		}
		for i := 0; i < 50; i++ {
			bounds = append(bounds, Time(rng.Intn(int(end))))
		}
		sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
		for _, b := range bounds {
			if dispatched[b] {
				tied++
			}
		}

		stepped := newSteppedModel(seed, 4000)
		for _, b := range bounds {
			stepped.k.Run(b)
		}
		stepped.k.Run(end)

		if len(stepped.log) != len(one.log) {
			t.Fatalf("seed %d: stepped run dispatched %d events, one Run %d", seed, len(stepped.log), len(one.log))
		}
		for i := range one.log {
			if stepped.log[i] != one.log[i] {
				t.Fatalf("seed %d: dispatch %d is %+v stepped, %+v in one Run", seed, i, stepped.log[i], one.log[i])
			}
		}
		if stepped.k.now != one.k.now || stepped.k.seq != one.k.seq || stepped.k.nowSeq != one.k.nowSeq ||
			stepped.k.Processed() != one.k.Processed() || stepped.k.Pending() != one.k.Pending() {
			t.Fatalf("seed %d: kernels differ after the run: now %v/%v seq %d/%d nowSeq %d/%d processed %d/%d pending %d/%d",
				seed, stepped.k.now, one.k.now, stepped.k.seq, one.k.seq, stepped.k.nowSeq, one.k.nowSeq,
				stepped.k.Processed(), one.k.Processed(), stepped.k.Pending(), one.k.Pending())
		}
		if err := stepped.k.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	t.Logf("%d tied boundaries; %d FIFO files, %d reservations filed and %d passed, %d dispatches with the overflow heap in use",
		tied, fifo, filed, passed, overflowed)
	if tied == 0 || fifo == 0 || filed == 0 || passed == 0 || overflowed == 0 {
		t.Fatal("the mix missed a path it is for")
	}
}
