package link

import (
	"testing"
	"testing/quick"

	"memnet/internal/packet"
	"memnet/internal/sim"
)

// monitoredLink is testLink with the management counters attached, as a
// managing policy attaches them.
func monitoredLink(t *testing.T, cfg Config) (*sim.Kernel, *Link, *[]*packet.Packet) {
	t.Helper()
	k, l, delivered := testLink(t, cfg)
	l.AttachMonitors()
	return k, l, delivered
}

func respPkt(id uint64) *packet.Packet {
	return &packet.Packet{ID: id, Kind: packet.ReadResp, Src: 0, Dst: packet.ProcessorID}
}

func writePkt(id uint64) *packet.Packet {
	return &packet.Packet{ID: id, Kind: packet.WriteReq, Src: packet.ProcessorID, Dst: 0}
}

func TestVirtualFullPowerMatchesRealFullPower(t *testing.T) {
	// At full power, the delay-monitor estimate must equal the measured
	// aggregate latency — the property that makes AEL−FEL ≈ 0 for
	// unmanaged links.
	k, l, _ := monitoredLink(t, Config{Mechanism: MechVWL})
	for i := 0; i < 50; i++ {
		l.Enqueue(respPkt(uint64(i)))
		k.Run(k.Now() + sim.Duration(i%7)*sim.Nanosecond)
	}
	k.RunAll()
	ec := l.Mon().Peek()
	if ec.ReadPackets != 50 {
		t.Fatalf("read packets = %d", ec.ReadPackets)
	}
	if ec.ActualReadLatency != ec.VirtualReadLatency[0] {
		t.Fatalf("actual %v != virtual full power %v", ec.ActualReadLatency, ec.VirtualReadLatency[0])
	}
}

func TestVirtualLatencyMonotoneInBandwidth(t *testing.T) {
	// Less bandwidth can never reduce estimated latency.
	if err := quick.Check(func(gaps []uint8) bool {
		k, l, _ := monitoredLink(t, Config{Mechanism: MechVWL})
		for i, g := range gaps {
			if i > 100 {
				break
			}
			l.Enqueue(respPkt(uint64(i)))
			k.Run(k.Now() + sim.Duration(g)*sim.Nanosecond/4)
		}
		k.RunAll()
		ec := l.Mon().Peek()
		for m := 1; m < NumBWModes; m++ {
			if ec.VirtualReadLatency[m] < ec.VirtualReadLatency[m-1] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestVirtualQueuePriority(t *testing.T) {
	// A read arriving behind queued writes must see only the in-service
	// residual in the virtual queue, like the real controller.
	k, l, _ := monitoredLink(t, Config{})
	// Three writes back-to-back at t=0: one in service, two queued.
	l.Enqueue(writePkt(1))
	l.Enqueue(writePkt(2))
	l.Enqueue(writePkt(3))
	l.Enqueue(respPkt(4))
	k.RunAll()
	ec := l.Mon().Peek()
	// Virtual: read waits for write 1 (3.2 ns), then serializes 3.2 ns,
	// plus SERDES. Actual matches (read priority in the real queue).
	want := 2*5*FlitTimeFull + SERDESBase
	if ec.VirtualReadLatency[0] != want {
		t.Fatalf("virtual read latency = %v, want %v", ec.VirtualReadLatency[0], want)
	}
	if ec.ActualReadLatency != want {
		t.Fatalf("actual read latency = %v, want %v", ec.ActualReadLatency, want)
	}
}

func TestDVFSVirtualIncludesSERDESPenalty(t *testing.T) {
	k, l, _ := monitoredLink(t, Config{Mechanism: MechDVFS})
	l.Enqueue(respPkt(1))
	k.RunAll()
	ec := l.Mon().Peek()
	// Unloaded: mode m latency = 5 flits/bw + serdes/bw.
	for m := 0; m < NumBWModes; m++ {
		ser := sim.Duration(float64(5*FlitTimeFull)/dvfsBW[m] + 0.5)
		want := ser + SERDESLatency(MechDVFS, m)
		if ec.VirtualReadLatency[m] != want {
			t.Fatalf("mode %d virtual = %v, want %v", m, ec.VirtualReadLatency[m], want)
		}
	}
}

func TestIdleIntervalHistogram(t *testing.T) {
	k, l, _ := monitoredLink(t, Config{})
	send := func(gap sim.Duration) {
		k.Run(k.Now() + gap)
		l.Enqueue(respPkt(1))
		k.Run(k.Now() + 5*FlitTimeFull + SERDESBase + RouterLatency())
	}
	send(0)
	send(50 * sim.Nanosecond)   // > 32
	send(200 * sim.Nanosecond)  // > 32, > 128
	send(600 * sim.Nanosecond)  // > 32, 128, 512
	send(3000 * sim.Nanosecond) // > all
	ec := l.Mon().Peek()
	want := [NumROOModes]int{4, 3, 2, 1}
	if ec.IdleOverCount != want {
		t.Fatalf("idle-over counts = %v, want %v", ec.IdleOverCount, want)
	}
	// Off-time under the 512 ns threshold: each idle interval is the gap
	// plus the SERDES+router tail (idle starts at serialization end, the
	// next arrival lands after the previous delivery).
	tail := SERDESBase + RouterLatency()
	wantOff := (600-512)*sim.Nanosecond + tail + (3000-512)*sim.Nanosecond + tail
	if ec.IdleOverTime[2] != wantOff {
		t.Fatalf("off time = %v, want %v", ec.IdleOverTime[2], wantOff)
	}
}

func TestQDQFCountsQueuedReads(t *testing.T) {
	k, l, _ := monitoredLink(t, Config{})
	// Six reads at the same instant: the 4th, 5th, 6th arrive behind >= 3
	// older packets.
	for i := 0; i < 6; i++ {
		l.Enqueue(respPkt(uint64(i)))
	}
	k.RunAll()
	ec := l.Mon().Peek()
	if ec.QueuedReads != 3 {
		t.Fatalf("queued reads = %d, want 3", ec.QueuedReads)
	}
	if qf := ec.QF(); qf != 0.5 {
		t.Fatalf("QF = %v, want 0.5", qf)
	}
	// QD: 4th waits 3 services, 5th 4, 6th 5 (×3.2 ns each).
	wantQD := (3 + 4 + 5) * 5 * FlitTimeFull
	if ec.QD != wantQD {
		t.Fatalf("QD = %v, want %v", ec.QD, wantQD)
	}
}

func TestSnapshotAndReset(t *testing.T) {
	k, l, _ := monitoredLink(t, Config{})
	l.Enqueue(respPkt(1))
	k.RunAll()
	ec := l.Mon().SnapshotAndReset(k.Now())
	if ec.ReadPackets != 1 || ec.ActualReadLatency == 0 {
		t.Fatalf("snapshot lost data: %+v", ec)
	}
	if l.Mon().Peek().ReadPackets != 0 || l.Mon().Peek().ActualReadLatency != 0 {
		t.Fatal("counters not reset")
	}
	// Virtual backlog must carry over: a second epoch still works.
	l.Enqueue(respPkt(2))
	k.RunAll()
	if l.Mon().Peek().ReadPackets != 1 {
		t.Fatal("post-reset accounting broken")
	}
}

func TestWakeupArrivalSampling(t *testing.T) {
	k, l, _ := monitoredLink(t, Config{ROO: true, Wakeup: 14 * sim.Nanosecond})
	// Dense burst: many reads 1 ns apart; sampler should observe several
	// arrivals per 14 ns window.
	for i := 0; i < 200; i++ {
		l.Enqueue(respPkt(uint64(i)))
		k.Run(k.Now() + 1*sim.Nanosecond)
	}
	k.RunAll()
	ec := l.Mon().SnapshotAndReset(k.Now())
	if ec.SampleWindows == 0 {
		t.Fatal("no sample windows closed")
	}
	avg := ec.AvgWakeupArrivals()
	if avg < 5 || avg > 14 {
		t.Fatalf("avg wakeup arrivals = %v, want ~13 for 1ns spacing", avg)
	}
}

func TestTimeInBWModeAccounting(t *testing.T) {
	k, l, _ := monitoredLink(t, Config{Mechanism: MechVWL})
	k.Run(10 * sim.Microsecond)
	l.SetBWMode(2)
	k.Run(20 * sim.Microsecond)
	l.FinishAccounting()
	ec := l.Mon().Peek()
	// 10 µs at mode 0, 1 µs transitioning (labelled mode 2, the slower),
	// 9 µs at mode 2.
	if ec.TimeInBWMode[0] != 10*sim.Microsecond {
		t.Fatalf("mode0 time = %v", ec.TimeInBWMode[0])
	}
	if ec.TimeInBWMode[2] != 10*sim.Microsecond {
		t.Fatalf("mode2 time = %v", ec.TimeInBWMode[2])
	}
}

func TestOffAndWakingTimeAccounting(t *testing.T) {
	k, l, _ := monitoredLink(t, Config{ROO: true})
	l.SetROOMode(0)
	l.Enqueue(respPkt(1))
	k.RunAll() // off at busy end + 32 ns
	offAt := k.Now()
	k.Run(offAt + 500*sim.Nanosecond)
	l.Enqueue(respPkt(2)) // wakes
	k.RunAll()
	k.Run(k.Now() + 10*sim.Nanosecond)
	l.FinishAccounting()
	ec := l.Mon().Peek()
	if ec.OffTime < 500*sim.Nanosecond {
		t.Fatalf("off time = %v, want >= 500ns", ec.OffTime)
	}
	if ec.WakingTime != WakeupDefault {
		t.Fatalf("waking time = %v, want %v", ec.WakingTime, WakeupDefault)
	}
}
