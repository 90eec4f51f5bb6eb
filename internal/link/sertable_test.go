package link

import (
	"testing"

	"memnet/internal/packet"
	"memnet/internal/sim"
)

var allKinds = []packet.Kind{packet.ReadReq, packet.WriteReq, packet.ReadResp, packet.Control}

// serializeWant is the occupancy of a packet of the given kind in mode m,
// straight from the bandwidth factor.
func serializeWant(mech Mechanism, m int, k packet.Kind) sim.Duration {
	return sim.Duration(float64(FlitTimeFull*sim.Duration(k.Flits()))/BWFactor(mech, m) + 0.5)
}

func TestSerTableExact(t *testing.T) {
	for _, mech := range []Mechanism{MechNone, MechVWL, MechDVFS} {
		tab := &serTables[mech]
		for m := 0; m < NumBWModes; m++ {
			for _, k := range allKinds {
				if got, want := tab.svc(k.Flits())[m], serializeWant(mech, m, k); got != want {
					t.Errorf("%v mode %d %v: occupancy %v, want %v", mech, m, k, got, want)
				}
			}
			if got, want := tab.serdes[m], SERDESLatency(mech, m); got != want {
				t.Errorf("%v mode %d: SERDES %v, want %v", mech, m, got, want)
			}
		}
	}
}

// TestTransmitDuringBWTransition checks that a link sends at the slower of
// its old and new modes while a bandwidth change is in flight, in both
// directions, and at the new mode once it lands: serialization and SERDES
// both follow that mode.
func TestTransmitDuringBWTransition(t *testing.T) {
	for _, mech := range []Mechanism{MechVWL, MechDVFS} {
		k, l, _ := testLink(t, Config{Mechanism: mech})
		var at sim.Time
		l.Deliver = func(*packet.Packet) { at = k.Now() }
		send := func(kind packet.Kind, wantMode int) {
			t.Helper()
			sent := k.Now()
			l.Enqueue(pkt(1, kind))
			k.Run(sent + sim.Microsecond/2)
			want := sent + serializeWant(mech, wantMode, kind) + SERDESLatency(mech, wantMode) + RouterLatency()
			if at != want {
				t.Fatalf("%v %v sent at %v (mode %d -> %d): delivered %v, want %v (mode %d)",
					mech, kind, sent, l.BWMode(), l.BWTarget(), at, want, wantMode)
			}
		}
		send(packet.ReadResp, 0)
		l.SetBWMode(2) // narrowing: the new mode binds at once
		send(packet.ReadReq, 2)
		k.Run(k.Now() + TransitionLatency(mech))
		send(packet.WriteReq, 2)
		l.SetBWMode(1) // widening: the old mode binds until it lands
		send(packet.ReadResp, 2)
		k.Run(k.Now() + TransitionLatency(mech))
		send(packet.ReadResp, 1)
	}
}
