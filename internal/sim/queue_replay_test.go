package sim

import (
	"encoding/binary"
	"os"
	"strings"
	"sync"
	"testing"
)

// The committed queue fixture: the schedule stream of the first
// QueueFixtureEvents dispatches of a chain cell shaped like bench's
// chain-managed one, encoded as record.go describes after a magic line.
// record_gen_test.go (-tags queuerecord) rewrites it.
const (
	QueueFixturePath   = "testdata/chain_queue.bin"
	QueueFixtureMagic  = "memnet queue stream v1\n"
	QueueFixtureEvents = 75_000
)

// replayOp is one decoded record. n is opStep's dispatch count.
type replayOp struct {
	op    uint8
	n     uint32
	delta Time
	age   uint64
}

var (
	fixtureOnce sync.Once
	fixtureOps  []replayOp
	fixtureErr  string
)

// loadQueueFixture decodes the committed stream once per test binary.
func loadQueueFixture(tb testing.TB) []replayOp {
	tb.Helper()
	fixtureOnce.Do(func() {
		b, err := os.ReadFile(QueueFixturePath)
		if err != nil {
			fixtureErr = err.Error()
			return
		}
		rest, ok := strings.CutPrefix(string(b), QueueFixtureMagic)
		if !ok {
			fixtureErr = "bad magic"
			return
		}
		b = []byte(rest)
		next := func() uint64 {
			v, n := binary.Uvarint(b)
			if n <= 0 {
				fixtureErr = "truncated record"
				return 0
			}
			b = b[n:]
			return v
		}
		for len(b) > 0 && fixtureErr == "" {
			v := next()
			o := replayOp{op: uint8(v & (1<<opBits - 1))}
			switch arg := v >> opBits; o.op {
			case opStep:
				o.n = uint32(arg)
			case opFile:
				o.delta, o.age = Time(arg), next()
			default:
				o.delta = Time(arg)
			}
			fixtureOps = append(fixtureOps, o)
		}
	})
	if fixtureErr != "" {
		tb.Fatalf("%s: %s", QueueFixturePath, fixtureErr)
	}
	return fixtureOps
}

// replayKernel replays ops on a fresh kernel, filing the FIFO's events
// through AfterFixed, or on the wheel like any other event when fifo is
// false. act(i) gives the action of the i-th filed event.
func replayKernel(ops []replayOp, fifo bool, act func(i int) Action) *Kernel {
	k := NewKernel()
	i := 0
	for _, o := range ops {
		switch o.op {
		case opStep:
			for n := o.n; n > 0; n-- {
				k.Step()
			}
		case opSchedule:
			k.ScheduleAction(k.now+o.delta, act(i))
			i++
		case opFIFO:
			if fifo {
				k.AfterFixed(o.delta, act(i))
			} else {
				k.ScheduleAction(k.now+o.delta, act(i))
			}
			i++
		case opReserve:
			k.ReserveSeq()
		case opFile:
			k.ScheduleActionSeq(k.now+o.delta, k.seq-o.age, act(i))
			i++
		case opAdvance:
			k.Run(k.now + o.delta)
		}
	}
	return k
}

// replayHeap replays ops on a bare heapQ, the pre-wheel queue, with the
// kernel's seq numbering.
func replayHeap(ops []replayOp, act func(i int) Action) {
	var h heapQ
	var now Time
	var seq uint64
	i := 0
	for _, o := range ops {
		switch o.op {
		case opStep:
			for n := o.n; n > 0; n-- {
				e := h.pop()
				now = e.at
				e.act.Act()
			}
		case opSchedule, opFIFO:
			seq++
			h.push(event{at: now + o.delta, seq: seq, act: act(i)})
			i++
		case opReserve:
			seq++
		case opFile:
			h.push(event{at: now + o.delta, seq: seq - o.age, act: act(i)})
			i++
		case opAdvance:
			now += o.delta
		}
	}
}

// TestQueueFixtureMatchesHeapOrdering replays the recorded chain cell
// through the kernel with and without the FIFO and through the heap
// oracle: all three must dispatch the same events in the same order, and
// the stream must hold FIFO events and late-filed reserved seqs.
func TestQueueFixtureMatchesHeapOrdering(t *testing.T) {
	ops := loadQueueFixture(t)
	var counts [opAdvance + 1]int
	for _, o := range ops {
		if o.op == opStep {
			counts[opStep] += int(o.n)
		} else {
			counts[o.op]++
		}
	}
	if counts[opStep] != QueueFixtureEvents {
		t.Fatalf("fixture dispatches %d events, want %d", counts[opStep], QueueFixtureEvents)
	}
	logOf := func(log *[]int) func(i int) Action {
		return func(i int) Action { return funcAction(func() { *log = append(*log, i) }) }
	}
	var want []int
	replayHeap(ops, logOf(&want))
	for _, fifo := range []bool{false, true} {
		var got []int
		k := replayKernel(ops, fifo, logOf(&got))
		if len(got) != len(want) {
			t.Fatalf("fifo=%v: kernel dispatched %d events, heap %d", fifo, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("fifo=%v: order diverges from the heap at dispatch %d: kernel #%d, heap #%d", fifo, i, got[i], want[i])
			}
		}
		if err := k.CheckInvariants(); err != nil {
			t.Fatalf("fifo=%v: %v", fifo, err)
		}
	}
	t.Logf("%d ops: %d dispatches, %d wheel/heap schedules, %d FIFO, %d reserved (%d filed), %d clock advances",
		len(ops), counts[opStep], counts[opSchedule], counts[opFIFO], counts[opReserve], counts[opFile], counts[opAdvance])
	if counts[opFIFO] == 0 || counts[opFile] == 0 {
		t.Fatal("fixture holds no FIFO events or no filed reservations")
	}
}

// benchAct keeps the scheduled work identical across queue benchmarks.
var benchAct Action = funcAction(func() {})

// benchReplay times whole replays of the fixture, reported per dispatched
// event. The stream is the real pattern: mostly sub-horizon hops and
// DRAM timings, a delivery FIFO, reserved off-check and vault-issue
// positions filed late, and a few percent of events past the horizon.
func benchReplay(b *testing.B, replay func(ops []replayOp)) {
	ops := loadQueueFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replay(ops)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/QueueFixtureEvents, "ns/event")
}

func benchActAt(int) Action { return benchAct }

// BenchmarkQueueReplayWheel replays with every event on the wheel (and
// its overflow heap), as before the FIFO.
func BenchmarkQueueReplayWheel(b *testing.B) {
	benchReplay(b, func(ops []replayOp) { replayKernel(ops, false, benchActAt) })
}

// BenchmarkQueueReplayFIFO replays with the deliveries in the FIFO, as
// the simulator runs.
func BenchmarkQueueReplayFIFO(b *testing.B) {
	benchReplay(b, func(ops []replayOp) { replayKernel(ops, true, benchActAt) })
}

// BenchmarkQueueReplayHeap replays on the bare 4-ary heap, the queue
// before the wheel.
func BenchmarkQueueReplayHeap(b *testing.B) {
	benchReplay(b, func(ops []replayOp) { replayHeap(ops, benchActAt) })
}
