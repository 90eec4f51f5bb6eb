package link

import (
	"math"
	"testing"

	"memnet/internal/packet"
	"memnet/internal/sim"
)

// testLink builds a link whose deliveries append to a slice.
func testLink(t *testing.T, cfg Config) (*sim.Kernel, *Link, *[]*packet.Packet) {
	t.Helper()
	k := sim.NewKernel()
	if cfg.FullWatts == 0 {
		cfg.FullWatts = 0.58625
	}
	l := New(k, cfg, 0, DirRequest, 0, packet.ProcessorID, 0, 1)
	var delivered []*packet.Packet
	l.Deliver = func(p *packet.Packet) { delivered = append(delivered, p) }
	return k, l, &delivered
}

func pkt(id uint64, kind packet.Kind) *packet.Packet {
	return &packet.Packet{ID: id, Kind: kind, Src: packet.ProcessorID, Dst: 0}
}

func TestFullPowerTransmissionTiming(t *testing.T) {
	k, l, delivered := testLink(t, Config{})
	l.Enqueue(pkt(1, packet.ReadReq)) // 1 flit
	k.RunAll()
	// 0.64 ns serialization + 3.2 ns SERDES + 2.56 ns router.
	want := FlitTimeFull + SERDESBase + RouterLatency()
	if k.Now() != want {
		t.Fatalf("delivery at %v, want %v", k.Now(), want)
	}
	if len(*delivered) != 1 || (*delivered)[0].Hops != 1 {
		t.Fatalf("delivered = %v", *delivered)
	}
}

func TestFiveFlitPacketTiming(t *testing.T) {
	k, l, _ := testLink(t, Config{})
	l.Enqueue(pkt(1, packet.WriteReq)) // 5 flits
	k.RunAll()
	want := 5*FlitTimeFull + SERDESBase + RouterLatency()
	if k.Now() != want {
		t.Fatalf("delivery at %v, want %v", k.Now(), want)
	}
}

func TestBackToBackSerialization(t *testing.T) {
	k, l, delivered := testLink(t, Config{})
	l.Enqueue(pkt(1, packet.ReadReq))
	l.Enqueue(pkt(2, packet.ReadReq))
	k.RunAll()
	if len(*delivered) != 2 {
		t.Fatalf("delivered %d", len(*delivered))
	}
	// Packets pipeline: second serialization starts when the first ends.
	want := 2*FlitTimeFull + SERDESBase + RouterLatency()
	if k.Now() != want {
		t.Fatalf("last delivery at %v, want %v", k.Now(), want)
	}
}

func TestReadPriorityOverWrites(t *testing.T) {
	k, l, delivered := testLink(t, Config{})
	// First packet enters service immediately; queue a write then a read.
	l.Enqueue(pkt(1, packet.WriteReq))
	l.Enqueue(pkt(2, packet.WriteReq))
	l.Enqueue(pkt(3, packet.ReadReq))
	k.RunAll()
	order := [3]uint64{(*delivered)[0].ID, (*delivered)[1].ID, (*delivered)[2].ID}
	if order != [3]uint64{1, 3, 2} {
		t.Fatalf("delivery order = %v, want [1 3 2]", order)
	}
}

func TestVWLModeSlowsSerialization(t *testing.T) {
	k, l, _ := testLink(t, Config{Mechanism: MechVWL})
	l.SetBWMode(1) // 8 lanes
	k.Run(VWLTransition + 1)
	start := k.Now()
	l.Enqueue(pkt(1, packet.ReadResp)) // 5 flits
	k.RunAll()
	// At half width a flit takes 1.28 ns; SERDES unchanged for VWL.
	want := start + 10*FlitTimeFull + SERDESBase + RouterLatency()
	if k.Now() != want {
		t.Fatalf("delivery at %v, want %v", k.Now(), want)
	}
}

func TestDVFSModeSlowsSERDES(t *testing.T) {
	k, l, _ := testLink(t, Config{Mechanism: MechDVFS})
	l.SetBWMode(2) // 50% bandwidth
	k.Run(DVFSTransition + 1)
	start := k.Now()
	l.Enqueue(pkt(1, packet.ReadReq))
	k.RunAll()
	ser := sim.Duration(float64(FlitTimeFull)/0.5 + 0.5)
	serdes := sim.Duration(float64(SERDESBase) / 0.5)
	want := start + ser + serdes + RouterLatency()
	if k.Now() != want {
		t.Fatalf("delivery at %v, want %v", k.Now(), want)
	}
}

func TestTransitionRunsAtSlowerOfTwoModes(t *testing.T) {
	k, l, _ := testLink(t, Config{Mechanism: MechVWL})
	l.SetBWMode(3) // heading to 1 lane
	// Immediately enqueue: during the transition the link must already
	// run at the slower bandwidth.
	l.Enqueue(pkt(1, packet.ReadReq))
	k.RunAll()
	if l.BWMode() != 3 {
		t.Fatalf("mode = %d after transition, want 3", l.BWMode())
	}
	// 1 flit at 1/16 width = 10.24 ns.
	wantMin := sim.Duration(16 * FlitTimeFull)
	if k.Now() < wantMin {
		t.Fatalf("delivery at %v, faster than slow mode would allow", k.Now())
	}
}

func TestPowerFactors(t *testing.T) {
	// VWL: (lanes+1)/17.
	for m, lanes := range []int{16, 8, 4, 1} {
		want := float64(lanes+1) / 17
		if got := PowerFactor(MechVWL, m); math.Abs(got-want) > 1e-12 {
			t.Errorf("VWL power factor mode %d = %v, want %v", m, got, want)
		}
	}
	// DVFS table from [16].
	for m, want := range []float64{1.0, 0.70, 0.35, 0.08} {
		if got := PowerFactor(MechDVFS, m); math.Abs(got-want) > 1e-12 {
			t.Errorf("DVFS power factor mode %d = %v, want %v", m, got, want)
		}
	}
	if PowerFactor(MechNone, 0) != 1 || BWFactor(MechNone, 0) != 1 {
		t.Error("MechNone factors must be 1")
	}
}

func TestROOTurnsOffAfterThreshold(t *testing.T) {
	k, l, _ := testLink(t, Config{ROO: true})
	l.SetROOMode(0) // 32 ns threshold
	var offAt sim.Time = -1
	l.OnTurnOff = func() { offAt = k.Now() }
	l.Enqueue(pkt(1, packet.ReadReq))
	k.RunAll()
	if l.State() != StateOff {
		t.Fatalf("state = %v after idle, want off", l.State())
	}
	// Off exactly threshold after the link went idle (serialization end).
	if offAt != FlitTimeFull+ROOThresholds[0] {
		t.Fatalf("turned off at %v", offAt)
	}
}

func TestROOFullModeStillTurnsOff(t *testing.T) {
	// §V-B: the 2048 ns mode is the "full power" ROO mode but still
	// turns the link off.
	k, l, _ := testLink(t, Config{ROO: true})
	var offAt sim.Time = -1
	l.OnTurnOff = func() { offAt = k.Now() }
	l.Enqueue(pkt(1, packet.ReadReq))
	k.RunAll()
	if l.State() != StateOff {
		t.Fatal("full ROO mode never turned off")
	}
	if offAt != FlitTimeFull+ROOThresholds[ROOFullMode] {
		t.Fatalf("turned off at %v", offAt)
	}
}

func TestFreshROOLinkPowersDownWithoutTraffic(t *testing.T) {
	k, l, _ := testLink(t, Config{ROO: true})
	var offAt sim.Time = -1
	l.OnTurnOff = func() { offAt = k.Now() }
	k.Run(5 * sim.Microsecond)
	if l.State() != StateOff {
		t.Fatal("never-used ROO link stayed on")
	}
	if offAt != ROOThresholds[ROOFullMode] {
		t.Fatalf("turned off at %v, want %v", offAt, ROOThresholds[ROOFullMode])
	}
}

func TestNoROONeverOff(t *testing.T) {
	k, l, _ := testLink(t, Config{})
	l.Enqueue(pkt(1, packet.ReadReq))
	k.RunAll()
	k.Run(k.Now() + 10*sim.Microsecond)
	if l.State() != StateOn {
		t.Fatal("non-ROO link turned off")
	}
}

func TestWakeupDelaysArrival(t *testing.T) {
	k, l, delivered := testLink(t, Config{ROO: true, Wakeup: WakeupDefault})
	l.AttachMonitors()
	l.SetROOMode(0)
	l.Enqueue(pkt(1, packet.ReadReq))
	k.RunAll() // transmits, then turns off at 32.64 ns
	offAt := k.Now()
	k.Run(offAt + 100*sim.Nanosecond)
	arrival := k.Now()
	var deliveredAt sim.Time
	l.Deliver = func(p *packet.Packet) {
		deliveredAt = k.Now()
		*delivered = append(*delivered, p)
	}
	l.Enqueue(pkt(2, packet.ReadReq))
	k.RunAll()
	want := arrival + WakeupDefault + FlitTimeFull + SERDESBase + RouterLatency()
	if deliveredAt != want {
		t.Fatalf("post-wake delivery at %v, want %v", deliveredAt, want)
	}
	if len(*delivered) != 2 {
		t.Fatalf("delivered %d", len(*delivered))
	}
	if l.Mon().Peek().Wakeups != 1 {
		t.Fatalf("wakeups = %d, want 1", l.Mon().Peek().Wakeups)
	}
}

func TestProactiveWakeHidesLatency(t *testing.T) {
	k, l, _ := testLink(t, Config{ROO: true})
	l.AttachMonitors()
	l.SetROOMode(0)
	l.Enqueue(pkt(1, packet.ReadReq))
	k.RunAll()
	// Link is off. Wake proactively and wait exactly the wakeup latency;
	// traffic then flows with no extra delay.
	wakeAt := k.Now()
	l.Wake()
	k.Run(wakeAt + WakeupDefault)
	if l.State() != StateOn {
		t.Fatalf("state after proactive wake = %v", l.State())
	}
	start := k.Now()
	l.Enqueue(pkt(2, packet.ReadReq))
	k.Run(start + FlitTimeFull + SERDESBase + RouterLatency())
	if got := l.Mon().Peek().ActualReadLatency; got != 2*(FlitTimeFull+SERDESBase) {
		t.Fatalf("aggregate read latency = %v, want 2 unloaded passes", got)
	}
}

func TestHoldOnVetoesTurnOff(t *testing.T) {
	k, l, _ := testLink(t, Config{ROO: true})
	l.SetROOMode(0)
	hold := true
	l.HoldOn = func() bool { return hold }
	l.Enqueue(pkt(1, packet.ReadReq))
	k.Run(5 * sim.Microsecond)
	if l.State() != StateOn {
		t.Fatal("vetoed link turned off")
	}
	hold = false
	l.MaybeTurnOff()
	if l.State() != StateOff {
		t.Fatal("MaybeTurnOff did not turn the idle link off")
	}
}

func TestOnTurnOffAndOnWakeStartHooks(t *testing.T) {
	k, l, _ := testLink(t, Config{ROO: true})
	l.SetROOMode(0)
	var events []string
	l.OnTurnOff = func() { events = append(events, "off") }
	l.OnWakeStart = func() { events = append(events, "wake") }
	l.Enqueue(pkt(1, packet.ReadReq))
	k.RunAll()
	l.Enqueue(pkt(2, packet.ReadReq))
	k.RunAll()
	if len(events) < 3 || events[0] != "off" || events[1] != "wake" || events[2] != "off" {
		t.Fatalf("hook events = %v", events)
	}
}

func TestForceFullPower(t *testing.T) {
	k, l, _ := testLink(t, Config{Mechanism: MechVWL, ROO: true})
	l.SetBWMode(3)
	l.SetROOMode(0)
	l.Enqueue(pkt(1, packet.ReadReq))
	k.RunAll() // off now
	l.ForceFullPower()
	k.RunAll()
	if l.State() != StateOn || l.BWTarget() != 0 || !l.Forced() {
		t.Fatalf("forced state: %v mode=%d forced=%v", l.State(), l.BWTarget(), l.Forced())
	}
	// While forced, the link must not turn off again.
	k.Run(k.Now() + 10*sim.Microsecond)
	if l.State() != StateOn {
		t.Fatal("forced link turned off")
	}
	l.ClearForce()
	k.Run(k.Now() + 10*sim.Microsecond)
	if l.State() != StateOff {
		t.Fatal("cleared link never turned off again")
	}
}

func TestEnergyAccountingFullPowerIdle(t *testing.T) {
	k, l, _ := testLink(t, Config{FullWatts: 0.5})
	k.Run(1 * sim.Millisecond)
	l.FinishAccounting()
	idle, active := l.EnergyJoules()
	// 0.5 W × 1 ms = 0.5 mJ, all idle (idle I/O = active I/O power).
	if math.Abs(idle-0.5e-3) > 1e-9 || active != 0 {
		t.Fatalf("idle=%v active=%v, want 0.5e-3/0", idle, active)
	}
}

func TestEnergySplitsIdleAndActive(t *testing.T) {
	k, l, _ := testLink(t, Config{FullWatts: 1.0})
	l.Enqueue(pkt(1, packet.ReadResp)) // busy 3.2 ns
	k.Run(1 * sim.Microsecond)
	l.FinishAccounting()
	idle, active := l.EnergyJoules()
	wantActive := 1.0 * 3.2e-9
	wantIdle := 1.0 * (1e-6 - 3.2e-9)
	if math.Abs(active-wantActive) > 1e-15 || math.Abs(idle-wantIdle) > 1e-12 {
		t.Fatalf("active=%v idle=%v", active, idle)
	}
	if l.BusyTime() != 5*FlitTimeFull {
		t.Fatalf("busy = %v", l.BusyTime())
	}
	if l.Bytes() != 80 {
		t.Fatalf("bytes = %d", l.Bytes())
	}
}

func TestOffStateEnergyIsOnePercent(t *testing.T) {
	k, l, _ := testLink(t, Config{ROO: true, FullWatts: 1.0})
	l.SetROOMode(0)
	l.Enqueue(pkt(1, packet.ReadReq))
	k.RunAll() // off at 32.64 ns
	offStart := k.Now()
	l.FinishAccounting()
	idle0, _ := l.EnergyJoules()
	k.Run(offStart + 1*sim.Microsecond)
	l.FinishAccounting()
	idle1, _ := l.EnergyJoules()
	got := idle1 - idle0
	want := 0.01 * 1.0 * 1e-6
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("off energy over 1us = %v, want %v", got, want)
	}
}

func TestVWLModePowerDraw(t *testing.T) {
	k, l, _ := testLink(t, Config{Mechanism: MechVWL, FullWatts: 1.0})
	l.SetBWMode(1) // 8 lanes: 9/17 power
	k.Run(VWLTransition)
	l.FinishAccounting()
	idle0, _ := l.EnergyJoules()
	k.Run(VWLTransition + 1*sim.Microsecond)
	l.FinishAccounting()
	idle1, _ := l.EnergyJoules()
	got := idle1 - idle0
	want := (9.0 / 17.0) * 1e-6
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("8-lane idle energy = %v, want %v", got, want)
	}
}

func TestSetBWModePanicsOutOfRange(t *testing.T) {
	_, l, _ := testLink(t, Config{Mechanism: MechVWL})
	defer func() {
		if recover() == nil {
			t.Error("out-of-range mode did not panic")
		}
	}()
	l.SetBWMode(7)
}

func TestChargeControlFlits(t *testing.T) {
	_, l, _ := testLink(t, Config{FullWatts: 1.0})
	l.ChargeControlFlits(5)
	_, active := l.EnergyJoules()
	want := 5 * FlitTimeFull.Seconds() * 1.0
	if math.Abs(active-want) > 1e-18 {
		t.Fatalf("control energy = %v, want %v", active, want)
	}
}

func TestMaxQueueAndOverflow(t *testing.T) {
	k, l, _ := testLink(t, Config{})
	for i := 0; i < BufferEntries+10; i++ {
		l.Enqueue(pkt(uint64(i), packet.WriteReq))
	}
	if l.MaxQueue() <= BufferEntries {
		t.Fatalf("maxQueue = %d", l.MaxQueue())
	}
	if l.Overflows() == 0 {
		t.Fatal("overflow not recorded")
	}
	k.RunAll()
}

// TestBWCommitMatchesPerRequestClosure holds the embedded bandwidth
// commit to the per-request closure it replaced, which captured its own
// end and mode and committed only if neither had been superseded. A
// shadow of that closure runs beside the link on the same kernel, filed
// right after each request's commit, and probes filed at each request's
// end compare the two. Requests land at random gaps, some inside the
// previous transition and several at one instant with repeated modes, so
// commits are superseded both ways.
func TestBWCommitMatchesPerRequestClosure(t *testing.T) {
	for _, mech := range []Mechanism{MechVWL, MechDVFS} {
		k, l, _ := testLink(t, Config{Mechanism: mech})
		lat := TransitionLatency(mech)
		var sMode, sTarget int
		var sEnd sim.Time
		sameInstant := 0
		shadowSet := func(m int) {
			if m == sTarget {
				return
			}
			now := k.Now()
			if now >= sEnd {
				sMode = sTarget
			}
			sTarget = m
			end := now + lat
			sEnd = end
			k.Schedule(end, func() {
				if sEnd != end || sTarget != m {
					if sEnd == end {
						sameInstant++
					}
					return
				}
				sMode = m
			})
		}
		probe := func() {
			if l.BWMode() != sMode || l.BWTarget() != sTarget {
				t.Fatalf("%v at %v: mode %d target %d, closure model %d %d",
					mech, k.Now(), l.BWMode(), l.BWTarget(), sMode, sTarget)
			}
		}
		rng := sim.NewRNG(42)
		gaps := []sim.Duration{lat / 2, lat - 1, lat, lat + 1, 3 * lat}
		for round := 0; round < 3000; round++ {
			k.Run(k.Now() + gaps[rng.Intn(len(gaps))])
			probe()
			for n := 1 + rng.Intn(3); n > 0; n-- {
				m := rng.Intn(NumBWModes)
				l.SetBWMode(m)
				shadowSet(m)
				k.Schedule(k.Now()+lat, probe)
			}
		}
		k.RunAll()
		probe()
		if sameInstant == 0 {
			t.Fatalf("%v: no request was superseded at its own instant", mech)
		}
	}
}
