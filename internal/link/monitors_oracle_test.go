package link

import (
	"reflect"
	"testing"

	"memnet/internal/packet"
	"memnet/internal/sim"
)

// oracleQueue is the delay-monitor virtual queue in its plain form,
// returning both the queueing delay and the departure of a read.
type oracleQueue struct {
	svcEnd   sim.Time
	rq, wq   int
	readSvc  sim.Duration
	writeSvc sim.Duration
}

func (q *oracleQueue) advance(now sim.Time) {
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

func (q *oracleQueue) occupancy(now sim.Time) int {
	n := q.rq + q.wq
	if q.svcEnd > now {
		n++
	}
	return n
}

func (q *oracleQueue) arriveRead(now sim.Time, svc sim.Duration) (wait sim.Duration, depart sim.Time) {
	q.readSvc = svc
	q.advance(now)
	if q.svcEnd <= now {
		q.svcEnd = now + svc
		return 0, q.svcEnd
	}
	depart = q.svcEnd + sim.Duration(q.rq)*q.readSvc + svc
	q.rq++
	return depart - svc - now, depart
}

func (q *oracleQueue) arriveWrite(now sim.Time, svc sim.Duration) {
	q.writeSvc = svc
	q.advance(now)
	if q.svcEnd <= now {
		q.svcEnd = now + svc
		return
	}
	q.wq++
}

// oracleMonitors is the arrival replay as one loop over every mode with
// the read/write and mode-0 decisions inside it, the virtual queues and
// latency sums in slices, and each service time recomputed from
// BWFactor and SERDESLatency. Monitors must produce the same counters.
type oracleMonitors struct {
	mech   Mechanism
	wakeup sim.Duration
	virt   []oracleQueue
	epoch  EpochCounters

	sampleEvery     int
	sinceSample     int
	sampleOpen      bool
	sampleOpenUntil sim.Time
	sampleArrivals  int
}

func newOracleMonitors(mech Mechanism, wakeup sim.Duration) *oracleMonitors {
	n := NumModes(mech)
	o := &oracleMonitors{mech: mech, wakeup: wakeup, virt: make([]oracleQueue, n), sampleEvery: 32}
	o.epoch.VirtualReadLatency = make([]sim.Duration, n)
	return o
}

func (o *oracleMonitors) observeArrival(now sim.Time, p *packet.Packet) {
	isRead := p.Kind.IsRead()
	o.epoch.AllPackets++
	if isRead {
		o.epoch.ReadPackets++
	}
	for m := range o.virt {
		q := &o.virt[m]
		svc := sim.Duration(float64(int64(FlitTimeFull)*int64(p.Flits()))/BWFactor(o.mech, m) + 0.5)
		if !isRead {
			q.arriveWrite(now, svc)
			continue
		}
		occ := q.occupancy(now)
		wait, depart := q.arriveRead(now, svc)
		o.epoch.VirtualReadLatency[m] += depart - now + SERDESLatency(o.mech, m)
		if m == 0 && occ >= 3 {
			o.epoch.QueuedReads++
			o.epoch.QD += wait
		}
	}
	if isRead {
		if o.sampleOpen {
			if now <= o.sampleOpenUntil {
				o.sampleArrivals++
			} else {
				o.closeSample()
			}
		}
		if !o.sampleOpen {
			o.sinceSample++
			if o.sinceSample >= o.sampleEvery {
				o.sinceSample = 0
				o.sampleOpen = true
				o.sampleOpenUntil = now + o.wakeup
				o.sampleArrivals = 0
			}
		}
	}
}

func (o *oracleMonitors) closeSample() {
	o.epoch.SampledWakeupArrivals += o.sampleArrivals
	o.epoch.SampleWindows++
	o.sampleOpen = false
}

func (o *oracleMonitors) snapshotAndReset(now sim.Time) EpochCounters {
	if o.sampleOpen && now > o.sampleOpenUntil {
		o.closeSample()
	}
	out := o.epoch
	out.VirtualReadLatency = append([]sim.Duration(nil), o.epoch.VirtualReadLatency...)
	o.epoch = EpochCounters{VirtualReadLatency: o.epoch.VirtualReadLatency}
	for i := range o.epoch.VirtualReadLatency {
		o.epoch.VirtualReadLatency[i] = 0
	}
	return out
}

// TestMonitorsMatchOracle drives Monitors and the oracle with the same
// randomized arrival streams — every packet kind, so reads and writes of
// one and five flits, same-instant bursts that build backlog, quiet gaps
// that drain it — under every mechanism, and compares every counter at
// each interleaved Peek and SnapshotAndReset. Epoch boundaries fall
// mid-burst, so virtual backlog carries across them.
func TestMonitorsMatchOracle(t *testing.T) {
	for _, mech := range []Mechanism{MechNone, MechVWL, MechDVFS} {
		queued := 0 // reads the full-power monitor saw queued, all seeds
		for seed := uint64(1); seed <= 8; seed++ {
			rng := sim.NewRNG(seed*0x9e37 + uint64(mech))
			wakeup := WakeupDefault
			if seed%2 == 0 {
				wakeup = WakeupSensitivity
			}
			mn, o := newMonitors(mech, wakeup), newOracleMonitors(mech, wakeup)
			// Each stream draws from a subset of kinds: all of them, or
			// one link direction's traffic.
			var stream []packet.Kind
			switch seed % 3 {
			case 0:
				stream = allKinds
			case 1:
				stream = []packet.Kind{packet.ReadReq, packet.WriteReq}
			case 2:
				stream = []packet.Kind{packet.ReadResp, packet.Control}
			}
			var now sim.Time
			p := &packet.Packet{}
			reads := 0
			for i := 0; i < 4000; i++ {
				switch r := rng.Intn(100); {
				case r < 35: // same instant: a burst
				case r < 85: // around one slow-mode service time
					now += sim.Duration(rng.Intn(60_000))
				case r < 97: // quiet: queues drain
					now += sim.Duration(rng.Intn(3_000_000))
				default: // beyond a wakeup window
					now += 20 * sim.Nanosecond
				}
				p.Kind = stream[rng.Intn(len(stream))]
				mn.observeArrival(now, p)
				o.observeArrival(now, p)
				if p.Kind.IsRead() {
					reads++
				}
				switch r := rng.Intn(100); {
				case r < 10:
					if got, want := *mn.Peek(), o.epoch; !reflect.DeepEqual(got, want) {
						t.Fatalf("%v seed %d arrival %d: Peek\n got %+v\nwant %+v", mech, seed, i, got, want)
					}
				case r < 12:
					got, want := mn.SnapshotAndReset(now), o.snapshotAndReset(now)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%v seed %d arrival %d: SnapshotAndReset\n got %+v\nwant %+v", mech, seed, i, got, want)
					}
					queued += want.QueuedReads
				}
			}
			if reads == 0 {
				t.Fatalf("%v seed %d: stream had no reads", mech, seed)
			}
			now += sim.Microsecond
			if got, want := mn.SnapshotAndReset(now), o.snapshotAndReset(now); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v seed %d: final SnapshotAndReset\n got %+v\nwant %+v", mech, seed, got, want)
			}
			if got, want := *mn.Peek(), o.epoch; !reflect.DeepEqual(got, want) {
				t.Fatalf("%v seed %d: Peek after reset\n got %+v\nwant %+v", mech, seed, got, want)
			}
		}
		if queued == 0 {
			t.Fatalf("%v: no stream built a backlog", mech)
		}
	}
}
