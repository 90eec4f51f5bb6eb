package sim

import (
	"strings"
	"testing"
)

// fifoDelay is the test FIFO's delay: a full-width SERDES + router hop.
const fifoDelay = 5760

// TestFIFOMatchesHeapOrdering is the differential property test for the
// fixed-delay FIFO: a Kernel and a bare heapQ oracle are driven with one
// randomized script mixing FIFO events (AfterFixed at the FIFO's delay),
// AfterFixed at other delays (which must land on the wheel), wheel events,
// events past the horizon, bursts that overflow a slot, and reserved seqs
// filed late with ScheduleActionSeq. Tie instants force same-instant
// events from all three structures: the clock is run to one delay before
// an instant that overflow events, a full slot's spills and reservations
// are waiting at, and FIFO and wheel events are filed there around them.
// Every event must fire in the oracle's (at, seq) order, and the script
// fails if it never reaches the tie and ring-growth paths it is for.
func TestFIFOMatchesHeapOrdering(t *testing.T) {
	deltas := []Time{0, 1, 640, fifoDelay - 1, fifoDelay, fifoDelay + 1, 40_000,
		numSlots << granularityBits, 3_000_000, 50_000_000}
	type reservation struct {
		seq uint64
		at  Time
		act Action
	}
	const (
		srcWheel = iota
		srcOverflow
		srcFIFO
	)
	var ties [3][3]int
	var wrappedGrowths, otherDelay int
	for trial := uint64(0); trial < 10; trial++ {
		rng := NewRNG(900 + trial)
		k := NewKernel()
		var h heapQ
		var got, want []int
		var unfiled []reservation
		var tieAts []Time
		id := 0
		newID := func() (Action, Action) {
			myID := id
			id++
			return funcAction(func() { got = append(got, myID) }), funcAction(func() { want = append(want, myID) })
		}
		schedule := func(at Time) {
			a, o := newID()
			k.ScheduleAction(at, a)
			h.push(event{at: at, seq: k.seq, act: o})
		}
		fixed := func(d Duration) {
			if k.fifoLen == len(k.fifo) && k.fifoHead != 0 {
				wrappedGrowths++
			}
			before := k.fifoLen
			a, o := newID()
			k.AfterFixed(d, a)
			h.push(event{at: k.now + d, seq: k.seq, act: o})
			if d != fifoDelay {
				otherDelay++
				if k.fifoLen != before {
					t.Fatalf("trial %d: AfterFixed(%d) with the FIFO fixed at %d went to the FIFO", trial, d, fifoDelay)
				}
			} else if k.fifoLen != before+1 {
				t.Fatalf("trial %d: AfterFixed(%d) missed the FIFO", trial, d)
			}
		}
		reserve := func(at Time) {
			seq := k.ReserveSeq()
			a, o := newID()
			unfiled = append(unfiled, reservation{seq, at, a})
			h.push(event{at: at, seq: seq, act: o})
		}
		fileSeq := func(seq uint64) {
			for i, r := range unfiled {
				if r.seq == seq {
					unfiled[i] = unfiled[len(unfiled)-1]
					unfiled = unfiled[:len(unfiled)-1]
					k.ScheduleActionSeq(r.at, r.seq, r.act)
					return
				}
			}
		}
		var lastAt Time = -1
		lastSrc := -1
		step := func() {
			fileSeq(h[0].seq)
			at, slot, _ := k.next()
			src := srcWheel
			switch slot {
			case overflowSlot:
				src = srcOverflow
			case fifoSlot:
				src = srcFIFO
			}
			if at == lastAt && src != lastSrc {
				ties[min(src, lastSrc)][max(src, lastSrc)]++
			}
			lastAt, lastSrc = at, src
			k.Step()
			h.pop().act.Act()
		}
		// advance dispatches everything up to until, then runs the clock
		// there.
		advance := func(until Time) {
			for len(h) > 0 && h[0].at <= until {
				step()
			}
			k.Run(until)
		}
		fixed(fifoDelay) // the first delay fixes the FIFO's
		for op := 0; op < 6000; op++ {
			switch r := rng.Intn(20); {
			case r < 5:
				schedule(k.Now() + deltas[rng.Intn(len(deltas))])
			case r < 9:
				fixed(fifoDelay)
			case r == 9:
				fixed(deltas[rng.Intn(len(deltas))] + 1) // never the FIFO's delay
			case r == 10: // a far tie instant: overflow events and reservations wait there
				at := k.Now() + 100*Nanosecond + Time(rng.Intn(1000))*Nanosecond
				tieAts = append(tieAts, at)
				schedule(at)
				reserve(at)
				schedule(at)
			case r == 11 && len(tieAts) > 0: // meet a tie instant with all three structures
				i := rng.Intn(len(tieAts))
				at := tieAts[i]
				tieAts[i] = tieAts[len(tieAts)-1]
				tieAts = tieAts[:len(tieAts)-1]
				if at-fifoDelay < k.Now() {
					continue
				}
				advance(at - fifoDelay)
				schedule(at)
				fixed(fifoDelay)
				if rng.Intn(2) == 0 { // fill the slot so later events spill
					for n := slotCap; n > 0; n-- {
						schedule(at)
					}
				}
				for _, r := range unfiled {
					if r.at == at {
						fileSeq(r.seq)
						break
					}
				}
				fixed(fifoDelay)
				schedule(at)
			case r == 12: // a burst of FIFO events grows the ring
				for n := 20 + rng.Intn(80); n > 0; n-- {
					fixed(fifoDelay)
				}
			case r == 13 && len(unfiled) > 0:
				fileSeq(unfiled[rng.Intn(len(unfiled))].seq)
			case r == 14:
				reserve(k.Now() + deltas[rng.Intn(len(deltas))])
			default:
				for n := rng.Intn(6); n > 0 && len(h) > 0; n-- {
					step()
				}
			}
			if op%97 == 0 {
				if err := k.CheckInvariants(); err != nil {
					t.Fatalf("trial %d op %d: %v", trial, op, err)
				}
			}
		}
		for len(h) > 0 {
			step()
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
	t.Logf("same-instant ties wheel/overflow %d, wheel/fifo %d, overflow/fifo %d; %d wrapped ring growths; %d other delays",
		ties[srcWheel][srcOverflow], ties[srcWheel][srcFIFO], ties[srcOverflow][srcFIFO], wrappedGrowths, otherDelay)
	if ties[srcWheel][srcFIFO] == 0 || ties[srcOverflow][srcFIFO] == 0 || ties[srcWheel][srcOverflow] == 0 {
		t.Fatal("script never tied events across all three structures")
	}
	if wrappedGrowths == 0 || otherDelay == 0 {
		t.Fatalf("script never grew a wrapped ring (%d) or passed another delay (%d)", wrappedGrowths, otherDelay)
	}
}

// TestAfterFixedKeepsSeqOrder pins the two directions a FIFO event ties
// with a wheel event at its instant: the one filed first runs first.
func TestAfterFixedKeepsSeqOrder(t *testing.T) {
	k := NewKernel()
	var got []int
	k.Schedule(fifoDelay, func() { got = append(got, 1) })
	k.AfterFixed(fifoDelay, funcAction(func() { got = append(got, 2) }))
	k.Schedule(fifoDelay, func() { got = append(got, 3) })
	k.AfterFixed(2*fifoDelay, funcAction(func() { got = append(got, 4) })) // another delay: the wheel
	if k.fifoLen != 1 || k.Pending() != 4 {
		t.Fatalf("fifo holds %d, pending %d; want 1 and 4", k.fifoLen, k.Pending())
	}
	k.RunAll()
	if len(got) != 4 || got[0] != 1 || got[1] != 2 || got[2] != 3 || got[3] != 4 {
		t.Fatalf("fifo/wheel same-instant ordering wrong: %v", got)
	}
}

// TestCheckInvariantsFIFOMutations corrupts a populated FIFO in each way
// CheckInvariants must catch: entries out of order, a pending entry at a
// position the kernel has passed, and a retired entry left populated.
func TestCheckInvariantsFIFOMutations(t *testing.T) {
	build := func() *Kernel {
		k := NewKernel()
		for i := 0; i < 4; i++ {
			k.Schedule(Time(i)*1000, nop)
			k.Step()
			k.AfterFixed(fifoDelay, funcAction(nop))
		}
		k.Step() // retire the head, so the ring has a cleared entry behind it
		if err := k.CheckInvariants(); err != nil {
			t.Fatalf("clean fifo: %v", err)
		}
		return k
	}
	mutations := []struct {
		name, want string
		corrupt    func(k *Kernel)
	}{
		{"out of order", "fifo order violated", func(k *Kernel) {
			a, b := &k.fifo[k.fifoHead], &k.fifo[k.fifoHead+1]
			*a, *b = *b, *a
		}},
		{"passed position", "precedes now", func(k *Kernel) {
			k.now = k.fifo[k.fifoHead].at
			k.nowSeq = k.fifo[k.fifoHead].seq
		}},
		{"retired entry uncleared", "fifo retired entry", func(k *Kernel) {
			k.fifo[k.fifoHead-1] = event{at: 1, seq: 1, act: funcAction(nop)}
		}},
	}
	for _, m := range mutations {
		k := build()
		m.corrupt(k)
		if err := k.CheckInvariants(); err == nil || !strings.Contains(err.Error(), m.want) {
			t.Errorf("%s: got %v, want an error containing %q", m.name, err, m.want)
		}
	}
}
