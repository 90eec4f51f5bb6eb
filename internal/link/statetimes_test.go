package link

import (
	"testing"

	"memnet/internal/packet"
	"memnet/internal/sim"
)

// TestStateTimesPartition: the cumulative residency vector must
// partition elapsed time exactly — including the open interval since the
// last accounting instant — and reading it must not disturb the link.
func TestStateTimesPartition(t *testing.T) {
	k, l, _ := testLink(t, Config{ROO: true, Wakeup: 14 * sim.Nanosecond})
	l.SetROOMode(0) // 32ns idle threshold: the link powers off after the packet
	l.Enqueue(pkt(1, packet.ReadReq))
	k.Run(5 * sim.Microsecond)

	st := l.StateTimes(k.Now())
	var sum sim.Duration
	for _, d := range st {
		sum += d
	}
	if sum != sim.Duration(k.Now()) {
		t.Errorf("residency sum = %v, want elapsed %v", sum, k.Now())
	}
	if st[StateOff] == 0 {
		t.Error("ROO-armed idle link never accumulated off time")
	}
	if st[StateOn] == 0 {
		t.Error("link transmitted but accumulated no on time")
	}

	// Read-only: identical repeated reads, and the underlying energy
	// accounting instant is untouched (FinishAccounting still balances).
	if again := l.StateTimes(k.Now()); again != st {
		t.Errorf("StateTimes mutated state: %v then %v", st, again)
	}
	idleBefore, activeBefore := l.EnergyJoules()
	_ = l.StateTimes(k.Now())
	if idle, active := l.EnergyJoules(); idle != idleBefore || active != activeBefore {
		t.Error("StateTimes perturbed energy integration")
	}
}
