package trace

import (
	"fmt"

	"memnet/internal/network"
	"memnet/internal/packet"
	"memnet/internal/sim"
)

// Recorder taps a network's injection stream into a Writer.
type Recorder struct {
	w   *Writer
	err error
}

// AttachRecorder installs a recorder on net (chaining any existing
// OnInject hook). Call Err after the run, and Flush the writer.
func AttachRecorder(net *network.Network, w *Writer) *Recorder {
	rec := &Recorder{w: w}
	prev := net.OnInject
	net.OnInject = func(p *packet.Packet) {
		if rec.err == nil {
			rec.err = w.Write(Record{
				At:   p.Issued,
				Addr: p.Addr - p.Addr%LineBytes,
				Read: p.Kind == packet.ReadReq,
			})
		}
		if prev != nil {
			prev(p)
		}
	}
	return rec
}

// Err returns the first write error, if any.
func (r *Recorder) Err() error { return r.err }

// Player replays a trace into a network, open-loop, preserving recorded
// inter-arrival times (optionally scaled). Replay is paced through the
// event queue in batches so arbitrarily long traces don't materialize as
// one giant event backlog.
type Player struct {
	kernel  *sim.Kernel
	net     *network.Network
	records []Record
	scale   float64
	offset  sim.Time
	next    int
	pumpAct pumpAction

	injected uint64
}

// NewPlayer prepares a replay of records starting at the kernel's current
// time. timeScale stretches (>1) or compresses (<1) inter-arrival times;
// 0 means 1.0.
func NewPlayer(k *sim.Kernel, net *network.Network, records []Record, timeScale float64) (*Player, error) {
	if timeScale == 0 {
		timeScale = 1
	}
	if timeScale < 0 {
		return nil, fmt.Errorf("trace: negative time scale %v", timeScale)
	}
	p := &Player{kernel: k, net: net, records: records, scale: timeScale}
	p.pumpAct.p = p
	if len(records) > 0 {
		p.offset = k.Now() - p.when(0)
	}
	return p, nil
}

// when maps record i's timestamp through the time scale.
func (p *Player) when(i int) sim.Time {
	base := p.records[0].At
	return base + sim.Time(float64(p.records[i].At-base)*p.scale)
}

// Start begins the replay.
func (p *Player) Start() {
	p.pump()
}

// pump injects due records and schedules the next batch boundary.
const pumpBatch = 256

func (p *Player) pump() {
	for n := 0; p.next < len(p.records) && n < pumpBatch; n++ {
		rec := p.records[p.next]
		at := p.when(p.next) + p.offset
		now := p.kernel.Now()
		if at > now {
			p.kernel.ScheduleAction(at, &p.pumpAct)
			return
		}
		if rec.Read {
			p.net.InjectRead(rec.Addr, -1)
		} else {
			p.net.InjectWrite(rec.Addr, -1)
		}
		p.injected++
		p.next++
	}
	if p.next < len(p.records) {
		// Batch boundary: yield to the event queue before continuing.
		p.kernel.AfterAction(0, &p.pumpAct)
	}
}

// pumpAction is the player's next pump. At most one is pending, so the
// player embeds it.
type pumpAction struct{ p *Player }

func (a *pumpAction) Act() { a.p.pump() }

// Injected returns how many records have been replayed so far.
func (p *Player) Injected() uint64 { return p.injected }

// Done reports whether the whole trace has been injected.
func (p *Player) Done() bool { return p.next >= len(p.records) }
