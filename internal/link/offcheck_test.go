package link

import (
	"testing"

	"memnet/internal/packet"
	"memnet/internal/sim"
)

// TestOffCheckCoversStayBounded drives one ROO link with back-to-back
// traffic interleaved with Wake, SetROOMode up and down, HoldOn vetoes,
// ForceFullPower/ClearForce, and counts the off-check
// events it has pending after every call and every kernel step. Re-arms
// share one pending cover, so at most one is pending, plus one orphan per
// threshold decrease still within the longest threshold of now (an
// orphaned cover retires by then).
func TestOffCheckCoversStayBounded(t *testing.T) {
	k, l, _ := testLink(t, Config{Mechanism: MechVWL, ROO: true})
	hold := false
	l.HoldOn = func() bool { return hold }
	offs := 0
	l.OnTurnOff = func() { offs++ }
	rng := sim.NewRNG(11)
	// Every off-check action is the link's cover when it is created, so
	// the covers seen are all the actions there are: each one is either
	// queued in the kernel or back on the free list.
	seen := map[*offCheckAction]bool{}
	var decreases []sim.Time
	maxPending := 0
	check := func(what string) {
		t.Helper()
		if l.cover != nil {
			seen[l.cover] = true
		}
		pending := len(seen) - len(l.offFree)
		recent := 0
		for _, at := range decreases {
			if k.Now()-at <= ROOThresholds[ROOFullMode] {
				recent++
			}
		}
		if pending > 1+recent {
			t.Fatalf("after %s at %s: %d off-checks pending, want at most 1+%d", what, k.Now(), pending, recent)
		}
		if pending > maxPending {
			maxPending = pending
		}
		if err := k.CheckInvariants(); err != nil {
			t.Fatalf("after %s: %v", what, err)
		}
	}
	check("construction")
	id := uint64(0)
	for op := 0; op < 20000; op++ {
		what := "step"
		switch r := rng.Intn(100); {
		case r < 40:
			id++
			kind := packet.ReadReq
			if rng.Intn(3) == 0 {
				kind = packet.WriteReq
			}
			l.Enqueue(pkt(id, kind))
			what = "enqueue"
		case r < 50:
			l.Wake()
			what = "wake"
		case r < 58:
			m := rng.Intn(NumROOModes)
			if m < l.ROOMode() {
				decreases = append(decreases, k.Now())
			}
			l.SetROOMode(m)
			what = "roo mode"
		case r < 62:
			hold = !hold
			if !hold {
				l.MaybeTurnOff()
			}
			what = "hold toggle"
		case r < 64:
			l.ForceFullPower()
			what = "force"
		case r < 70:
			l.ClearForce()
			what = "clear force"
		case r < 80:
			// Idle gap: long enough, sometimes, for a threshold to expire.
			until := k.Now() + sim.Duration(rng.Intn(3000))*sim.Nanosecond
			for k.Pending() > 0 && k.Now() < until {
				k.Step()
				check("idle step")
			}
			if k.Now() < until {
				k.Run(until)
			}
		default:
			for n := rng.Intn(8); n > 0 && k.Step(); n-- {
				check("step")
			}
		}
		check(what)
	}
	if offs == 0 || maxPending < 2 {
		t.Fatalf("script too tame: %d turn-offs, at most %d off-checks pending", offs, maxPending)
	}
	if len(decreases) == 0 {
		t.Fatal("the script never lowered the threshold")
	}
}
