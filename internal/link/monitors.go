package link

import (
	"memnet/internal/packet"
	"memnet/internal/sim"
)

// virtQueue is one delay monitor ([20]): a causal replay of the link's
// arrival stream against a hypothetical bandwidth mode, with the same
// read-over-write priority as the real link controller. Because every
// read on a given link has the same size (1-flit requests downstream,
// 5-flit responses upstream) and so does every write (5-flit writes
// downstream, 1-flit error responses upstream), the queue only needs
// class counts, not per-packet state.
type virtQueue struct {
	svcEnd   sim.Time // when the in-service packet finishes (<= now: idle)
	rq, wq   int      // queued (not in-service) reads and writes
	readSvc  sim.Duration
	writeSvc sim.Duration
}

// advance drains completed service up to now. Queued packets start
// back-to-back, reads first, matching the real controller.
func (q *virtQueue) advance(now sim.Time) {
	for q.svcEnd <= now && (q.rq > 0 || q.wq > 0) {
		if q.rq > 0 {
			q.svcEnd += q.readSvc
			q.rq--
		} else {
			q.svcEnd += q.writeSvc
			q.wq--
		}
	}
}

// occupancy counts packets in the virtual system at now.
func (q *virtQueue) occupancy(now sim.Time) int {
	n := q.rq + q.wq
	if q.svcEnd > now {
		n++
	}
	return n
}

// arriveRead records a read arrival and returns its departure (end of
// serialization); its queueing delay is depart − svc − now.
func (q *virtQueue) arriveRead(now sim.Time, svc sim.Duration) (depart sim.Time) {
	q.readSvc = svc
	q.advance(now)
	if q.svcEnd <= now {
		q.svcEnd = now + svc
		return q.svcEnd
	}
	q.rq++
	return q.svcEnd + sim.Duration(q.rq)*svc
}

// arriveWrite records a write arrival (no latency accounting: writes are
// off the critical path).
func (q *virtQueue) arriveWrite(now sim.Time, svc sim.Duration) {
	q.writeSvc = svc
	q.advance(now)
	if q.svcEnd <= now {
		q.svcEnd = now + svc
		return
	}
	q.wq++
}

// Monitors implements the per-link hardware counters the management
// schemes rely on:
//
//   - a "delay monitor and delay counter" per bandwidth mode ([20]): a
//     virtual queue that replays the real arrival stream against each
//     candidate bandwidth to estimate what the aggregate read-packet
//     latency would have been; mode 0 doubles as the full-power estimator
//     that produces the link's contribution to FEL;
//   - an idle-interval histogram ([21]) predicting ROO wakeup counts and
//     off-time per idleness threshold;
//   - a sampler estimating the average number of read packets that arrive
//     during one wakeup latency (the paper's per-wakeup overhead model);
//   - the actual aggregate read latency (AEL contribution) and, for the
//     network-aware scheme, cumulative queuing delay (QD) and queued
//     fraction (QF) judged against the full-power delay monitor.
//
// All counters are per-epoch; the policy snapshots and resets them at each
// epoch boundary.
type Monitors struct {
	ser    *serTable
	wakeup sim.Duration
	nModes int

	// virt[m] is mode m's delay monitor and virtLat[m] its running
	// aggregate read latency this epoch; entries at and past nModes stay
	// idle. virtLat is copied into epoch.VirtualReadLatency whenever the
	// counters are read (Peek, SnapshotAndReset), so the per-arrival
	// replay touches only fixed-size arrays.
	virt    [NumBWModes]virtQueue
	virtLat [NumBWModes]sim.Duration

	epoch EpochCounters

	// Wakeup-arrival sampling state.
	sampleEvery     int
	sinceSample     int
	sampleOpen      bool
	sampleOpenUntil sim.Time
	sampleArrivals  int
}

// EpochCounters is the per-epoch snapshot the policies consume.
type EpochCounters struct {
	// ReadPackets counts read request/response packets that entered the
	// link this epoch; AllPackets counts every packet.
	ReadPackets int
	AllPackets  int
	// ActualReadLatency is the measured aggregate read latency (last-flit
	// departure + SERDES − arrival), the AEL link contribution.
	ActualReadLatency sim.Duration
	// VirtualReadLatency[m] is the delay-monitor estimate of aggregate
	// read latency had the link run in bandwidth mode m all epoch;
	// VirtualReadLatency[0] is the full-power estimate (FEL contribution).
	VirtualReadLatency []sim.Duration
	// IdleOverCount[i] is the number of idle intervals longer than ROO
	// threshold i; IdleOverTime[i] is the total time the link would have
	// spent off under threshold i (sum of interval−threshold).
	IdleOverCount [NumROOModes]int
	IdleOverTime  [NumROOModes]sim.Duration
	// Wakeups counts actual off→on transitions this epoch.
	Wakeups int
	// SampledWakeupArrivals/SampleWindows estimate the average number of
	// read packets arriving during one wakeup latency.
	SampledWakeupArrivals int
	SampleWindows         int
	// QD is the cumulative (full-power-monitor) queuing delay of queued
	// read packets; QueuedReads of ReadPackets arrived behind ≥3 older
	// packets (§VI-C).
	QD          sim.Duration
	QueuedReads int
	// BusyTime is time spent serializing flits this epoch (utilization).
	BusyTime sim.Duration
	// TimeInBWMode[m] is the time spent with bandwidth mode m effective
	// this epoch (Fig. 13's link-hour accounting).
	TimeInBWMode [NumBWModes]sim.Duration
	// OffTime and WakingTime partition the epoch's ROO states.
	OffTime, WakingTime sim.Duration
}

// AvgWakeupArrivals returns the sampled estimate of read arrivals per
// wakeup window (0 when nothing was sampled).
func (e *EpochCounters) AvgWakeupArrivals() float64 {
	if e.SampleWindows == 0 {
		return 0
	}
	return float64(e.SampledWakeupArrivals) / float64(e.SampleWindows)
}

// QF returns the queued fraction of read packets.
func (e *EpochCounters) QF() float64 {
	if e.ReadPackets == 0 {
		return 0
	}
	return float64(e.QueuedReads) / float64(e.ReadPackets)
}

func newMonitors(mech Mechanism, wakeup sim.Duration) *Monitors {
	n := NumModes(mech)
	m := &Monitors{
		ser:         &serTables[mech],
		wakeup:      wakeup,
		nModes:      n,
		sampleEvery: 32,
	}
	m.epoch.VirtualReadLatency = make([]sim.Duration, n)
	return m
}

// observeArrival replays the arrival into every virtual queue and updates
// the QD/QF and sampling state. It must be called once per packet, at
// queue-insertion time.
func (mn *Monitors) observeArrival(now sim.Time, p *packet.Packet) {
	mn.epoch.AllPackets++
	svc := mn.ser.svc(p.Kind.Flits())
	if !p.Kind.IsRead() {
		// Writes only occupy the virtual links: no latency accounting,
		// they are off the critical path.
		for m := 0; m < mn.nModes; m++ {
			mn.virt[m].arriveWrite(now, svc[m])
		}
		return
	}
	mn.epoch.ReadPackets++

	// Latency = queueing + serialization + SERDES pipeline delay. Mode 0
	// is the full-power monitor, which also judges QD/QF.
	q := &mn.virt[0]
	occ := q.occupancy(now)
	depart := q.arriveRead(now, svc[0])
	mn.virtLat[0] += depart - now + mn.ser.serdes[0]
	if occ >= 3 {
		mn.epoch.QueuedReads++
		mn.epoch.QD += depart - svc[0] - now
	}
	for m := 1; m < mn.nModes; m++ {
		depart := mn.virt[m].arriveRead(now, svc[m])
		mn.virtLat[m] += depart - now + mn.ser.serdes[m]
	}

	// Wakeup-arrival sampling: periodically pick a read packet and count
	// how many further reads arrive within one wakeup latency.
	if mn.sampleOpen {
		if now <= mn.sampleOpenUntil {
			mn.sampleArrivals++
		} else {
			mn.closeSample()
		}
	}
	if !mn.sampleOpen {
		mn.sinceSample++
		if mn.sinceSample >= mn.sampleEvery {
			mn.sinceSample = 0
			mn.sampleOpen = true
			mn.sampleOpenUntil = now + mn.wakeup
			mn.sampleArrivals = 0
		}
	}
}

func (mn *Monitors) closeSample() {
	mn.epoch.SampledWakeupArrivals += mn.sampleArrivals
	mn.epoch.SampleWindows++
	mn.sampleOpen = false
}

// observeDeparture records the measured latency of a read packet.
func (mn *Monitors) observeDeparture(p *packet.Packet, latency sim.Duration) {
	if p.Kind.IsRead() {
		mn.epoch.ActualReadLatency += latency
	}
}

// observeIdleEnd records a completed link idle interval.
func (mn *Monitors) observeIdleEnd(interval sim.Duration) {
	for i, th := range ROOThresholds {
		if interval > th {
			mn.epoch.IdleOverCount[i]++
			mn.epoch.IdleOverTime[i] += interval - th
		}
	}
}

// SnapshotAndReset returns this epoch's counters and clears them. Virtual
// queue backlog carries across the boundary (in-flight virtual work was
// already attributed to the epoch its packet arrived in).
func (mn *Monitors) SnapshotAndReset(now sim.Time) EpochCounters {
	if mn.sampleOpen && now > mn.sampleOpenUntil {
		mn.closeSample()
	}
	out := mn.epoch
	out.VirtualReadLatency = append([]sim.Duration(nil), mn.virtLat[:mn.nModes]...)
	mn.epoch = EpochCounters{VirtualReadLatency: mn.epoch.VirtualReadLatency}
	clear(mn.epoch.VirtualReadLatency)
	mn.virtLat = [NumBWModes]sim.Duration{}
	return out
}

// Peek returns the live counters without resetting (violation checks).
func (mn *Monitors) Peek() *EpochCounters {
	copy(mn.epoch.VirtualReadLatency, mn.virtLat[:])
	return &mn.epoch
}
