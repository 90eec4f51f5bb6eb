package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"time"

	"memnet/internal/core"
	"memnet/internal/dram"
	"memnet/internal/exp"
	"memnet/internal/link"
	"memnet/internal/network"
	"memnet/internal/packet"
	"memnet/internal/power"
	"memnet/internal/serve"
	"memnet/internal/sim"
	"memnet/internal/topology"
	"memnet/internal/workload"
)

// Each fixture times one layer's public calls on an isolated build and
// reports the median of fixtureReps repetitions, so one descheduled
// repetition does not move it. A fixture that also runs kernel events
// reports how many per operation; its self time subtracts them at
// sim.ns_per_event.
const fixtureReps = 5

func perOp(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

// nopAction is the queue fixture's scheduled work: nothing, so the
// fixture times the queue alone.
type nopAction struct{}

func (*nopAction) Act() {}

// queueDelta draws an event delay from the mix a sweep produces: mostly
// flit and router times and few-to-tens-of-ns SERDES, DRAM and think
// delays, with a thin tail of ROO off-checks. Far-future timers (epochs,
// bursts) are left out: a run holds a handful of them, but in a queue
// held at constant depth they would pile up into most of it.
func queueDelta(rng *sim.RNG) sim.Duration {
	switch p := rng.Intn(1000); {
	case p < 450:
		return sim.Duration(640 + 640*rng.Intn(5))
	case p < 700:
		return sim.Duration(3_000 + rng.Intn(27_000))
	case p < 900:
		return sim.FromNanos(rng.Exp(5))
	case p < 960:
		return sim.Duration(14_000 + rng.Intn(18_000))
	default:
		return sim.Duration(32_000 << uint(2*rng.Intn(4)))
	}
}

// kernelNsPerEvent times ScheduleAction+Step with the queue held at
// pending events, the workload's recorded high-water mark. The delays are
// scaled to mean meanDelay, which the caller sets to pending over the
// workload's events per simulated picosecond: by Little's law a queue of
// that depth then turns over at the workload's event rate, so slots hold
// as many events as in the real run. Every delay is drawn before the
// clock starts.
func kernelNsPerEvent(pending int, meanDelay float64) float64 {
	const steps = 1 << 20
	rng := sim.NewRNG(7)
	base := make([]float64, 1<<16)
	var sum float64
	for i := range base {
		base[i] = float64(queueDelta(rng))
		sum += base[i]
	}
	scale := meanDelay / (sum / float64(len(base)))
	deltas := make([]sim.Duration, len(base))
	for i, d := range base {
		deltas[i] = sim.Duration(d*scale + 0.5)
	}
	mask := len(deltas) - 1
	act := &nopAction{}
	var reps []float64
	for r := 0; r < fixtureReps; r++ {
		k := sim.NewKernel()
		for i := 0; i < max(pending, 1); i++ {
			k.ScheduleAction(k.Now()+deltas[i&mask], act)
		}
		t := time.Now()
		for i := 0; i < steps; i++ {
			k.ScheduleAction(k.Now()+deltas[i&mask], act)
			k.Step()
		}
		reps = append(reps, perOp(time.Since(t), steps))
	}
	return median(reps)
}

// linkNsPerTransmit pushes bursts of read responses through one link
// built with the workload's mechanism (link.New, Enqueue, RunAll) and
// returns wall ns and kernel events per transmit.
func linkNsPerTransmit(mech exp.Mech) (float64, float64) {
	const rounds, burst = 2048, 32
	cfg := link.Config{Mechanism: mech.BW, ROO: mech.ROO, Wakeup: link.WakeupDefault,
		FullWatts: power.DefaultModel().ParamsForRadix(true).LinkFullWatts()}
	pkts := make([]packet.Packet, burst)
	var reps []float64
	var events float64
	for r := 0; r < fixtureReps; r++ {
		k := sim.NewKernel()
		l := link.New(k, cfg, 1, link.DirResponse, 0, 0, packet.ProcessorID, 1)
		l.Deliver = func(*packet.Packet) {}
		t := time.Now()
		for i := 0; i < rounds; i++ {
			for j := range pkts {
				pkts[j] = packet.Packet{ID: uint64(j + 1), Kind: packet.ReadResp, Src: 0, Dst: packet.ProcessorID}
				l.Enqueue(&pkts[j])
			}
			k.RunAll()
		}
		reps = append(reps, perOp(time.Since(t), rounds*burst))
		events = float64(k.Processed()) / (rounds * burst)
	}
	return median(reps), events
}

// doneCounter is the DRAM fixtures' completion.
type doneCounter struct{ n int }

func (d *doneCounter) AccessDone() { d.n++ }

// dramNsPerAccess drives one vault of a dram.New stack through
// AccessAction: queued keeps the vault queue full (batches of QueueDepth,
// one read in four a write), idle spaces single reads past tRC. It
// returns wall ns and kernel events per access.
func dramNsPerAccess(cfg dram.Config, queued bool) (float64, float64) {
	const n = 1 << 14
	stride := uint64(cfg.LineBytes * cfg.Vaults) // consecutive lines of vault 0
	var reps []float64
	var events float64
	for r := 0; r < fixtureReps; r++ {
		k := sim.NewKernel()
		d := dram.New(k, cfg)
		done := &doneCounter{}
		t := time.Now()
		for i := 0; i < n; {
			if queued {
				for j := 0; j < cfg.QueueDepth; j, i = j+1, i+1 {
					d.AccessAction(uint64(i)*stride, i%4 != 0, done)
				}
				k.RunAll()
			} else {
				d.AccessAction(uint64(i)*stride, true, done)
				k.RunAll()
				k.Run(k.Now() + cfg.TRC())
				i++
			}
		}
		reps = append(reps, perOp(time.Since(t), done.n))
		events = float64(k.Processed()) / float64(done.n)
	}
	return median(reps), events
}

var sampleSink uint64

// samplerNsPerSample times Sampler.Sample over the workload's profile.
func samplerNsPerSample(p *workload.Profile) float64 {
	const n = 1 << 20
	s := workload.NewSampler(p, packet.LineBytes)
	var reps []float64
	for r := 0; r < fixtureReps; r++ {
		rng := sim.NewRNG(11)
		t := time.Now()
		for i := 0; i < n; i++ {
			sampleSink += s.Sample(rng)
		}
		reps = append(reps, perOp(time.Since(t), n))
	}
	return median(reps)
}

// networkIdleRead injects one read at a time (InjectRead + RunAll) into
// an idle build of the workload's network, so every read finds its links
// asleep under ROO. It returns wall ns, kernel events and link transmits
// per read.
func networkIdleRead(spec exp.Spec) (wall, events, transmits float64, err error) {
	const n = 4096
	topo, err := topology.Build(spec.Topology, spec.Workload.Modules(spec.Size.ChunkGB()))
	if err != nil {
		return 0, 0, 0, err
	}
	s := workload.NewSampler(spec.Workload, packet.LineBytes)
	rng := sim.NewRNG(13)
	addrs := make([]uint64, n)
	for i := range addrs {
		addrs[i] = s.Sample(rng)
	}
	var reps []float64
	for r := 0; r < fixtureReps; r++ {
		k := sim.NewKernel()
		net := network.New(k, topo, netConfig(spec))
		t := time.Now()
		for _, a := range addrs {
			net.InjectRead(a, 0)
			k.RunAll()
		}
		reps = append(reps, perOp(time.Since(t), n))
		snap := net.TakeSnapshot()
		if snap.ReadsDone != n {
			return 0, 0, 0, fmt.Errorf("network fixture: %d of %d reads completed", snap.ReadsDone, n)
		}
		events = float64(k.Processed()) / n
		transmits = float64(snap.ReadHops) / n
	}
	return median(reps), events, transmits, nil
}

// epochMs prices one management epoch: a traffic-free build of the
// workload's network run for a cell's simulated length with core.Attach,
// minus the same run without it, less the extra kernel events, divided by
// the epochs run (by 1 for a policy without epochs, where it is the
// Attach cost alone).
func epochMs(spec exp.Spec, nsPerEvent float64) (float64, error) {
	topo, err := topology.Build(spec.Topology, spec.Workload.Modules(spec.Size.ChunkGB()))
	if err != nil {
		return 0, err
	}
	run := func(attach bool) (time.Duration, uint64, uint64) {
		k := sim.NewKernel()
		net := network.New(k, topo, netConfig(spec))
		t := time.Now()
		var epochs uint64
		if attach {
			mcfg := core.DefaultConfig(spec.Policy, spec.Alpha)
			mcfg.CollectLinkHours = spec.CollectLinkHours
			m := core.Attach(k, net, mcfg)
			k.Run(spec.Warmup + spec.SimTime)
			epochs = m.Epochs()
		} else {
			k.Run(spec.Warmup + spec.SimTime)
		}
		return time.Since(t), k.Processed(), epochs
	}
	var with, without []float64
	var extraEvents, epochs uint64
	for r := 0; r < 2*fixtureReps+1; r++ {
		d, ev, ep := run(true)
		d0, ev0, _ := run(false)
		with, without = append(with, msOf(d)), append(without, msOf(d0))
		extraEvents, epochs = ev-ev0, ep
	}
	cost := median(with) - median(without) - float64(extraEvents)*nsPerEvent/1e6
	return cost / float64(max(epochs, 1)), nil
}

// walAcceptMs times AcceptLog.Accept (an fsynced append) of daemon-shaped
// jobs.
func walAcceptMs(dir string, spec exp.Spec) (float64, error) {
	a, _, err := serve.OpenAcceptLog(filepath.Join(dir, "accept.wal"), nil)
	if err != nil {
		return 0, err
	}
	defer a.Close()
	var ms []float64
	for i := 1; i <= 8*fixtureReps; i++ {
		rec := serve.AcceptedJob{ID: fmt.Sprintf("j%d", i), Runs: []exp.SpecJSON{specJSON(spec, float64(i))}}
		t := time.Now()
		if err := a.Accept(rec); err != nil {
			return 0, err
		}
		ms = append(ms, msOf(time.Since(t)))
	}
	return median(ms), nil
}

// storeMs times Store.Put and Store.Get of the workload's result bytes.
func storeMs(dir string, payload []byte) (put, get float64, err error) {
	s, err := serve.NewStore(dir)
	if err != nil {
		return 0, 0, err
	}
	var puts, gets []float64
	for i := 0; i < 8*fixtureReps; i++ {
		key := fmt.Sprintf("bench|%d", i)
		t := time.Now()
		if err := s.Put(key, payload); err != nil {
			return 0, 0, err
		}
		puts = append(puts, msOf(time.Since(t)))
		t = time.Now()
		raw, ok, err := s.Get(key)
		gets = append(gets, msOf(time.Since(t)))
		if err != nil || !ok || !bytes.Equal(raw, payload) {
			return 0, 0, fmt.Errorf("store fixture: get %s: ok=%v err=%v", key, ok, err)
		}
	}
	return median(puts), median(gets), nil
}
