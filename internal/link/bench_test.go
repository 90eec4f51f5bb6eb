package link

import (
	"testing"

	"memnet/internal/packet"
	"memnet/internal/sim"
)

// BenchmarkLinkHop measures one hop of the link layer's hot path: a read
// response through Enqueue (four live delay monitors on a VWL link),
// txDone and deliver, with ROO arming and cancelling its off-check
// between hops — the work a managed network does per packet per link.
// The hop must not allocate once the delivery pool and wheel slots are
// warm.
func BenchmarkLinkHop(b *testing.B) {
	k := sim.NewKernel()
	l := New(k, Config{Mechanism: MechVWL, ROO: true, FullWatts: 0.58625},
		0, DirResponse, 0, 0, packet.ProcessorID, 1)
	l.AttachMonitors()
	delivered := false
	l.Deliver = func(*packet.Packet) { delivered = true }
	p := &packet.Packet{Kind: packet.ReadResp, Src: 0, Dst: packet.ProcessorID}
	hop := func() {
		l.Enqueue(p)
		for !delivered {
			k.Step()
		}
		delivered = false
	}
	for i := 0; i < 10_000; i++ {
		hop()
	}
	if n := l.Mon().Peek().ReadPackets; n != 10_000 {
		b.Fatalf("monitors saw %d reads, want 10000", n)
	}
	if a := testing.AllocsPerRun(1000, hop); a != 0 {
		b.Fatalf("link hop allocates %v times, want 0", a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hop()
	}
}
