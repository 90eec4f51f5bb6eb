package link

import (
	"math"
	"testing"

	"memnet/internal/packet"
	"memnet/internal/sim"
)

// TestAccountingInvariantsUnderChurn exercises random interleavings of
// traffic, mode changes, ROO transitions, forcing and proactive wakes,
// then checks the time/energy partitions close exactly:
//
//   - Σ TimeInBWMode over an epoch equals the epoch length;
//   - busy time never exceeds elapsed time;
//   - energy sits between the off floor and the full-power ceiling;
//   - off/waking time only appears on ROO links.
func TestAccountingInvariantsUnderChurn(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := sim.NewRNG(uint64(42 + trial))
		mech := []Mechanism{MechNone, MechVWL, MechDVFS}[trial%3]
		roo := trial%2 == 1
		cfg := Config{Mechanism: mech, ROO: roo, FullWatts: 0.586}
		k := sim.NewKernel()
		l := New(k, cfg, 0, Direction(trial%2), 0, packet.ProcessorID, 0, 1)
		l.AttachMonitors()
		l.Deliver = func(*packet.Packet) {}

		horizon := 200 * sim.Microsecond
		var drive func()
		drive = func() {
			if k.Now() >= horizon {
				return
			}
			switch rng.Intn(10) {
			case 0:
				if mech != MechNone {
					l.SetBWMode(rng.Intn(NumModes(mech)))
				}
			case 1:
				if roo {
					l.SetROOMode(rng.Intn(NumROOModes))
				}
			case 2:
				l.Wake()
			case 3:
				l.ForceFullPower()
			case 4:
				l.ClearForce()
			case 5:
				l.MaybeTurnOff()
			default:
				kind := packet.ReadResp
				if rng.Float64() < 0.3 {
					kind = packet.WriteReq
				}
				l.Enqueue(&packet.Packet{ID: rng.Uint64(), Kind: kind})
			}
			k.After(sim.Duration(rng.Intn(2000))*sim.Nanosecond, drive)
		}
		drive()
		k.Run(horizon)
		l.FinishAccounting()

		ec := l.Mon().Peek()
		var modeSum sim.Duration
		for _, d := range ec.TimeInBWMode {
			if d < 0 {
				t.Fatalf("trial %d: negative mode time", trial)
			}
			modeSum += d
		}
		if modeSum != horizon {
			t.Fatalf("trial %d (%v,roo=%v): mode times sum to %v, want %v",
				trial, mech, roo, modeSum, horizon)
		}
		if ec.BusyTime < 0 || ec.BusyTime > horizon {
			t.Fatalf("trial %d: busy time %v", trial, ec.BusyTime)
		}
		if !roo && (ec.OffTime != 0 || ec.WakingTime != 0) {
			t.Fatalf("trial %d: non-ROO link has off/waking time", trial)
		}
		if ec.OffTime+ec.WakingTime > horizon {
			t.Fatalf("trial %d: off+waking exceed horizon", trial)
		}
		idle, active := l.EnergyJoules()
		total := idle + active
		secs := horizon.Seconds()
		if total < 0.99*cfg.FullWatts*OffPowerFraction*secs || total > 1.0001*cfg.FullWatts*secs {
			t.Fatalf("trial %d: energy %v outside physical bounds", trial, total)
		}
		if math.IsNaN(total) {
			t.Fatalf("trial %d: NaN energy", trial)
		}
	}
}

// TestQueueDrainsAfterChurn confirms no packet is stranded by mode/state
// churn: everything enqueued is eventually delivered.
func TestQueueDrainsAfterChurn(t *testing.T) {
	rng := sim.NewRNG(7)
	cfg := Config{Mechanism: MechVWL, ROO: true, FullWatts: 0.586}
	k := sim.NewKernel()
	l := New(k, cfg, 0, DirRequest, 0, packet.ProcessorID, 0, 1)
	delivered := 0
	l.Deliver = func(*packet.Packet) { delivered++ }
	sent := 0
	for i := 0; i < 500; i++ {
		k.Run(k.Now() + sim.Duration(rng.Intn(500))*sim.Nanosecond)
		switch rng.Intn(4) {
		case 0:
			l.SetBWMode(rng.Intn(NumBWModes))
		case 1:
			l.SetROOMode(rng.Intn(NumROOModes))
		default:
			sent++
			l.Enqueue(&packet.Packet{ID: uint64(i), Kind: packet.ReadReq})
		}
	}
	k.RunAll()
	if delivered != sent {
		t.Fatalf("delivered %d of %d packets", delivered, sent)
	}
	if l.QueueLen() != 0 {
		t.Fatalf("%d packets stranded", l.QueueLen())
	}
}
