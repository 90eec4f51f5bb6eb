package link

import (
	"math"
	"testing"

	"memnet/internal/packet"
	"memnet/internal/sim"
)

// TestLinkQueueMatchesMD1 validates the link's queueing behaviour against
// queueing theory: Poisson arrivals of fixed-size packets into a
// deterministic server form an M/D/1 queue, whose mean waiting time is
//
//	W = ρ·D / (2·(1−ρ))
//
// with service time D and utilization ρ. The measured mean link latency
// must match D + W + SERDES within Monte-Carlo tolerance. This anchors
// the simulator's core serialization/queueing engine to an analytic
// ground truth independent of the implementation.
func TestLinkQueueMatchesMD1(t *testing.T) {
	for _, rho := range []float64{0.3, 0.6, 0.8} {
		k := sim.NewKernel()
		l := New(k, Config{FullWatts: 0.586}, 0, DirResponse, 0, 0, packet.ProcessorID, 1)
		l.AttachMonitors()
		var total sim.Duration
		n := 0
		l.Deliver = func(p *packet.Packet) {}
		service := 5 * FlitTimeFull // 3.2 ns per response packet
		meanGap := float64(service) / rho

		rng := sim.NewRNG(99)
		const packets = 60000
		var inject func()
		sent := 0
		inject = func() {
			if sent >= packets {
				return
			}
			sent++
			p := &packet.Packet{ID: uint64(sent), Kind: packet.ReadResp}
			l.Enqueue(p)
			k.After(sim.Duration(rng.Exp(meanGap)), inject)
		}
		inject()
		k.RunAll()

		ec := l.Mon().Peek()
		total = ec.ActualReadLatency
		n = ec.ReadPackets
		if n != packets {
			t.Fatalf("rho=%v: %d packets measured", rho, n)
		}
		measured := float64(total)/float64(n) - float64(SERDESBase)
		d := float64(service)
		want := d + rho*d/(2*(1-rho))
		if math.Abs(measured-want)/want > 0.05 {
			t.Fatalf("rho=%v: mean latency %.2f ns, M/D/1 predicts %.2f ns",
				rho, measured/1000, want/1000)
		}
	}
}

// TestVaultlessThroughputAtSaturation checks the link saturates at exactly
// its serialization rate.
func TestLinkSaturationThroughput(t *testing.T) {
	k := sim.NewKernel()
	l := New(k, Config{FullWatts: 0.586}, 0, DirResponse, 0, 0, packet.ProcessorID, 1)
	delivered := 0
	l.Deliver = func(*packet.Packet) { delivered++ }
	const packets = 10000
	for i := 0; i < packets; i++ {
		l.Enqueue(&packet.Packet{ID: uint64(i), Kind: packet.ReadResp})
	}
	k.RunAll()
	// Last delivery at packets × 3.2 ns + SERDES + router.
	want := sim.Duration(packets)*5*FlitTimeFull + SERDESBase + RouterLatency()
	if k.Now() != want {
		t.Fatalf("saturated drain took %v, want %v", k.Now(), want)
	}
	if delivered != packets {
		t.Fatalf("delivered %d", delivered)
	}
}
