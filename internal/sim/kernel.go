package sim

import "math/bits"

// Action is a unit of work the kernel can schedule without allocating: a
// pointer-shaped value (pointer, func) converts to this interface with no
// heap allocation, so hot paths schedule pooled Action structs where a
// fresh closure would cost an allocation per event.
type Action interface {
	// Act runs the scheduled work. The kernel has already advanced its
	// clock to the event's time when Act is called.
	Act()
}

// funcAction adapts a plain closure to Action. Func values are
// pointer-shaped, so the conversion does not allocate — Schedule(at, fn)
// costs exactly what it did when the queue stored bare func()s.
type funcAction func()

func (f funcAction) Act() { f() }

// event is a scheduled action. seq breaks ties so that events scheduled
// for the same instant run in insertion order, keeping runs deterministic.
type event struct {
	at  Time
	seq uint64
	act Action
}

// before reports whether e must run before o: earlier time first,
// insertion order within the same instant.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Timing-wheel geometry. Most simulation events are short fixed-latency
// hops — flit times (640 ps), SERDES/router latencies (a few ns), DRAM
// timings and think jitter (tens of ns) — so 128 slots of 512 ps give a
// 65.5 ns horizon that covers that cluster. Events past the horizon (ROO
// off-checks past 65 ns, wakeups, refresh-delayed DRAM timings, epoch
// ticks and violation sweeps, burst phases) and events that find their
// slot full go to a spill-over min-heap; see DESIGN.md §12 for the
// determinism argument.
const (
	// granularityBits sets the slot width to 2^9 = 512 ps, under one
	// flit time, so the slot being drained rarely receives an insert
	// that lands behind its last entry and has to be sorted back in.
	granularityBits = 9
	// slotBits sets the wheel size to 2^7 = 128 slots: a 65.5 ns
	// horizon, and a wheel small enough (27 KB) to stay cache-resident
	// and to cost a kernel build nothing measurable.
	slotBits = 7
	numSlots = 1 << slotBits
	slotMask = numSlots - 1
	// bitmapWords is the occupancy bitmap size: one bit per slot.
	bitmapWords = numSlots / 64
	// slotCap is each slot's fixed event capacity. Steady-state
	// occupancy is a couple of events per occupied slot; an insert into
	// a full slot compacts away its retired entries, or failing that
	// goes to the overflow heap, so slots never allocate.
	slotCap = 8
	// seqBits is the width of the sequence number in a wheel key. A
	// key packs an event's offset within its slot (the low
	// granularityBits bits of at) above its seq, so one uint64 compare
	// orders two events of a slot by (at, seq). 2^55 sequence numbers
	// last ~11 years of simulation at 10^8 events/s; ScheduleAction
	// panics rather than wrap.
	seqBits = 64 - granularityBits
	seqMask = 1<<seqBits - 1
	// offsetMask extracts an instant's offset within its slot.
	offsetMask = 1<<granularityBits - 1
)

// wev is a wheel-resident event. key packs the event's offset within
// its slot above its seq (see wheelKey); the rest of at is implied by
// the slot index, because every resident event lies within one
// revolution of now (see slotStart). Packing keeps each entry at 24
// bytes — a separate seq field would make it 32 — which matters because
// inserts hash to effectively random slots and the entry write is
// usually a cache miss.
type wev struct {
	key uint64
	act Action
}

// wheelKey packs at's offset within its slot above seq: comparing two
// keys of one slot compares (at, seq).
func wheelKey(at Time, seq uint64) uint64 {
	return uint64(at&offsetMask)<<seqBits | seq
}

// wheelSlot is one slot's pending events, ev[head:n], held inline so the
// header and the entries an insert touches share adjacent cache lines.
// Inserts are pure appends; the dirty flag records whether an append
// broke key order, and next sorts ev[head:n] the moment the slot becomes
// the drain candidate. Deferring the sort moves the shifting work from
// insert time — when the slot is a random, cold cache line — to drain
// time, when the slot is about to be walked anyway, and slots that fill
// in key order (the common case) never sort at all. Every entry outside
// ev[head:n] is zero, so a retired action is collectable at once; a
// drained slot rewinds to head = n = 0.
type wheelSlot struct {
	head, n int32
	dirty   bool
	ev      [slotCap]wev
}

// sortPending restores key — that is (at, seq) — order over the unread
// tail of the slot with an insertion sort. Keys are unique, so the
// result does not depend on the order the entries arrived in.
func (s *wheelSlot) sortPending() {
	ev := s.ev[s.head:s.n]
	for i := 1; i < len(ev); i++ {
		e := ev[i]
		j := i
		for j > 0 && ev[j-1].key > e.key {
			ev[j] = ev[j-1]
			j--
		}
		ev[j] = e
	}
	s.dirty = false
}

// Kernel is a discrete-event simulation engine. The zero value is ready to
// use; Schedule events and call Run.
//
// The queue is a hierarchical timing wheel: near-future events (within
// numSlots slot widths of now) hash into wheel[at>>granularityBits &
// slotMask], far-future events and events whose slot is full go to a
// monomorphic 4-ary min-heap. An event's slot position is unambiguous —
// the insert window is exactly one revolution, so two resident events
// can never collide a lap apart — and the next event is the (at, seq)
// minimum of the first occupied slot's head and the heap head, which is
// the exact total order the deterministic-replay tests pin. The wheel is
// a fixed array, so only the heap ever allocates, and only while it
// grows to its peak depth: steady-state Schedule+Step performs zero heap
// allocations (see TestKernelScheduleStepZeroAllocs and
// BenchmarkKernelScheduleStep).
//
// Beside the wheel sits a FIFO for events filed with AfterFixed at one
// fixed delay (a link's SERDES + router hop). Their times rise with their
// seqs, so the FIFO is in (at, seq) order by construction: an insert is
// an append and its head is its minimum, which next compares with the
// wheel's and the heap's.
type Kernel struct {
	now   Time
	seq   uint64
	count uint64
	// nowSeq is the seq of the event dispatched last at now (0 when none
	// was), or every seq issued once Run or Step found nothing left to
	// dispatch at now: Passed reports positions at or before
	// (now, nowSeq).
	nowSeq uint64

	// Cooperative cancellation: when check is armed (non-nil), Run calls
	// it once every checkMask+1 processed events and stops — recording
	// the error in stopErr — the moment it returns non-nil. Run slices
	// its loop on the stride (see runSlice), so arming costs the hot
	// path nothing per event; the amortized check cost is well under 1%
	// of event throughput (bench/'s sim.cancel_overhead row, budgeted by
	// make overhead). checkLeft counts the events still due before the
	// next call and carries across Run calls, so the calls land on the
	// same processed-event counts however the caller steps Run.
	checkMask uint64
	checkLeft uint64
	check     func() error
	stopErr   error

	// wheelCount is the number of events resident in the wheel; it
	// short-circuits the bitmap scan when the wheel is empty.
	wheelCount int
	// overflow holds events at or beyond the wheel horizon and events
	// that found their slot full. They are popped straight from the heap
	// when their time comes — never migrated — so ordering needs no
	// cascade step.
	overflow heapQ
	// occupied has one bit per slot, set while the slot holds events, so
	// finding the next occupied slot is a word scan, not a slot walk.
	occupied [bitmapWords]uint64
	wheel    [numSlots]wheelSlot

	// fixed is the FIFO's delay, set by the first AfterFixed (0 until
	// then). fifo is a power-of-two ring holding fifoLen pending events
	// from fifo[fifoHead] on, oldest first; every other entry is zero.
	// It is allocated on first use and grows only by doubling, so steady
	// state never allocates.
	fixed    Duration
	fifo     []event
	fifoHead int
	fifoLen  int
}

// Pseudo slot indices next returns for events outside the wheel.
const (
	overflowSlot = -1
	fifoSlot     = -2
)

// fifoInitCap is the FIFO ring's first size: more than the deliveries a
// network's links have in flight at once, so it rarely grows.
const fifoInitCap = 64

// NewKernel returns a ready kernel; it is the same as new(Kernel).
func NewKernel() *Kernel { return new(Kernel) }

// DefaultCheckEvery is SetCheck's stride when none is given: frequent
// enough that an abandoned run stops within a few milliseconds of wall
// time at the simulator's measured throughput, rare enough that the
// check function's cost amortizes to nothing.
const DefaultCheckEvery = 1 << 14

// SetCheck arms cooperative cancellation: Run calls fn at its next
// entry and then once every `every` processed events (rounded up to a
// power of two; 0 means DefaultCheckEvery), counted across Run calls,
// and stops early when fn returns a non-nil error, which Err then
// reports. Callers poll a context, a budget, or a
// deadline from fn — the kernel only knows how to stop. A nil fn
// disarms. Step and RunAll never check: they are the fine-grained
// drivers whose callers already own the loop.
func (k *Kernel) SetCheck(every uint64, fn func() error) {
	if fn == nil {
		k.check = nil
		return
	}
	if every == 0 {
		every = DefaultCheckEvery
	}
	mask := uint64(1)
	for mask < every {
		mask <<= 1
	}
	k.checkMask = mask - 1
	k.checkLeft = 0
	k.check = fn
}

// Err reports the error that stopped Run early via an armed check, or
// nil for a run that has never been interrupted.
func (k *Kernel) Err() error { return k.stopErr }

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Processed returns the number of events executed so far (for reporting
// simulator throughput).
func (k *Kernel) Processed() uint64 { return k.count }

// Pending returns the number of events still queued.
func (k *Kernel) Pending() int { return k.wheelCount + len(k.overflow) + k.fifoLen }

// Schedule runs fn at absolute time at. Scheduling in the past panics:
// that is always a simulator bug, never a recoverable condition.
func (k *Kernel) Schedule(at Time, fn func()) { k.ScheduleAction(at, funcAction(fn)) }

// After runs fn d picoseconds from now.
func (k *Kernel) After(d Duration, fn func()) { k.ScheduleAction(k.now+d, funcAction(fn)) }

// AfterAction schedules a d picoseconds from now.
func (k *Kernel) AfterAction(d Duration, a Action) { k.ScheduleAction(k.now+d, a) }

// ScheduleAction runs a at absolute time at. Hot paths pass pooled
// Action values here to keep steady state allocation-free; Schedule's
// closure form wraps to the same path at no extra cost.
func (k *Kernel) ScheduleAction(at Time, a Action) {
	if at < k.now {
		panic("sim: scheduling event in the past")
	}
	if recording {
		k.record(opSchedule, at-k.now, 0)
	}
	k.seq++
	if k.seq > seqMask {
		panic("sim: sequence numbers exhausted")
	}
	if (at>>granularityBits)-(k.now>>granularityBits) < numSlots {
		k.wheelInsert(at, k.seq, a)
	} else {
		k.overflow.push(event{at: at, seq: k.seq, act: a})
	}
}

// AfterFixed schedules a d picoseconds from now, as AfterAction does, at
// the same seq, but through the kernel's fixed-delay FIFO: an append and,
// at dispatch, a head read, where the wheel pays a random-slot insert and
// a deferred sort. The first d given fixes the FIFO's delay; a call with
// any other d files on the wheel, so every FIFO event was filed at its
// insert time plus one delay, and the FIFO stays in (at, seq) order.
func (k *Kernel) AfterFixed(d Duration, a Action) {
	if d != k.fixed {
		if k.fixed != 0 || d <= 0 {
			k.ScheduleAction(k.now+d, a)
			return
		}
		k.fixed = d
	}
	if recording {
		k.record(opFIFO, d, 0)
	}
	k.seq++
	if k.seq > seqMask {
		panic("sim: sequence numbers exhausted")
	}
	if k.fifoLen == len(k.fifo) {
		k.growFIFO()
	}
	k.fifo[(k.fifoHead+k.fifoLen)&(len(k.fifo)-1)] = event{at: k.now + d, seq: k.seq, act: a}
	k.fifoLen++
}

// growFIFO doubles the full FIFO ring (or allocates its first one),
// moving the pending events to the front in order.
func (k *Kernel) growFIFO() {
	buf := make([]event, max(2*len(k.fifo), fifoInitCap))
	n := copy(buf, k.fifo[k.fifoHead:])
	copy(buf[n:], k.fifo[:k.fifoHead])
	k.fifo, k.fifoHead = buf, 0
}

// ReserveSeq consumes the next sequence number without scheduling
// anything and returns it. A caller that may or may not need an event
// reserves its position in the total order now — exactly as
// ScheduleAction would have — and files it later, if at all, with
// ScheduleActionSeq.
func (k *Kernel) ReserveSeq() uint64 {
	if recording {
		k.record(opReserve, 0, 0)
	}
	k.seq++
	if k.seq > seqMask {
		panic("sim: sequence numbers exhausted")
	}
	return k.seq
}

// ScheduleActionSeq runs a at the position (at, seq) of the total order,
// where seq came from ReserveSeq: the event dispatches exactly where a
// ScheduleAction(at, a) issued at reservation time would have. Each
// reserved position may be filed once. Filing a position the kernel has
// already passed — at before now, or at now with seq at or before the
// event being dispatched — panics, as does a seq never issued.
func (k *Kernel) ScheduleActionSeq(at Time, seq uint64, a Action) {
	if seq == 0 || seq > k.seq {
		panic("sim: ScheduleActionSeq with an unreserved seq")
	}
	if k.Passed(at, seq) {
		panic("sim: scheduling event at a position already dispatched")
	}
	if recording {
		k.record(opFile, at-k.now, k.seq-seq)
	}
	// The wheel/overflow choice is ScheduleAction's, repeated here
	// rather than shared: a shared helper is too big to inline and would
	// add a call to every ScheduleAction.
	if (at>>granularityBits)-(k.now>>granularityBits) < numSlots {
		k.wheelInsert(at, seq, a)
	} else {
		k.overflow.push(event{at: at, seq: seq, act: a})
	}
}

// Passed reports whether the kernel has dispatched past the position
// (at, seq): an event filed there with ScheduleAction at reservation
// time would already have run. A reserved position that has passed can
// no longer be filed with ScheduleActionSeq.
func (k *Kernel) Passed(at Time, seq uint64) bool {
	return at < k.now || at == k.now && seq <= k.nowSeq
}

// wheelInsert files the event into its slot. The slot is append-only:
// an arrival whose key sorts before the slot's last entry — a later
// instant was filed first, or a reserved seq is filed late — just marks
// the slot dirty, and sortPending restores key order when the slot
// reaches the head of the wheel. A full slot first compacts its pending
// entries down over the retired ones; a full slot with none retired
// sends the event to the overflow heap, which next orders against the
// wheel by (at, seq) like any other overflow event.
func (k *Kernel) wheelInsert(at Time, seq uint64, a Action) {
	idx := int((at >> granularityBits) & slotMask)
	s := &k.wheel[idx]
	if s.n == slotCap {
		if s.head == 0 {
			k.overflow.push(event{at: at, seq: seq, act: a})
			return
		}
		m := int32(copy(s.ev[:], s.ev[s.head:]))
		clear(s.ev[m:])
		s.head, s.n = 0, m
	}
	key := wheelKey(at, seq)
	n := s.n
	if n > s.head && key < s.ev[n-1].key {
		s.dirty = true
	}
	s.ev[n] = wev{key: key, act: a}
	s.n = n + 1
	k.occupied[idx>>6] |= 1 << uint(idx&63)
	k.wheelCount++
}

// wheelMinSlot returns the index of the occupied slot holding the
// earliest wheel event. Every resident event lies within one revolution
// ahead of now, so scanning the occupancy bitmap circularly from now's
// slot visits slots in absolute-time order. Must not be called with an
// empty wheel.
func (k *Kernel) wheelMinSlot() int {
	start := int((k.now >> granularityBits) & slotMask)
	w0 := start >> 6
	if word := k.occupied[w0] &^ (1<<uint(start&63) - 1); word != 0 {
		return w0<<6 + bits.TrailingZeros64(word)
	}
	for i := 1; i < bitmapWords; i++ {
		w := (w0 + i) & (bitmapWords - 1)
		if word := k.occupied[w]; word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
	}
	// Wrapped a full revolution: the earliest event is in the start
	// word's low bits (slots just under one horizon ahead).
	word := k.occupied[w0] & (1<<uint(start&63) - 1)
	return w0<<6 + bits.TrailingZeros64(word)
}

// slotStart returns the absolute start time of wheel slot idx. Every
// resident event lies less than one revolution at or after now's slot,
// so the slot's lap is the one at or after now's.
func (k *Kernel) slotStart(idx int) Time {
	nowSlot := k.now >> granularityBits
	return (nowSlot + Time((idx-int(nowSlot))&slotMask)) << granularityBits
}

// next locates the earliest pending event without removing it. slot is
// the wheel slot index, overflowSlot when the minimum sits in the
// overflow heap, or fifoSlot when it is the FIFO's head. Ties at one
// instant go to the smaller seq whichever structure holds it: an event
// spilled from a full slot sits in the heap ahead of later wheel entries
// at its instant, a reserved seq filed late can land in the wheel behind
// an overflow event scheduled after the reservation, and a FIFO event
// ties with events filed anywhere before or after it. Locate and removal
// are split so Run can bounds-check the next event with a single
// min-scan instead of a peek-then-pop pair.
func (k *Kernel) next() (at Time, slot int, ok bool) {
	var seq uint64
	slot = overflowSlot
	if k.wheelCount > 0 {
		idx := k.wheelMinSlot()
		s := &k.wheel[idx]
		if s.dirty {
			s.sortPending()
		}
		key := s.ev[s.head].key
		at, seq, slot, ok = k.slotStart(idx)|Time(key>>seqBits), key&seqMask, idx, true
	}
	if len(k.overflow) > 0 {
		if o := &k.overflow[0]; !ok || o.at < at || o.at == at && o.seq < seq {
			at, seq, slot, ok = o.at, o.seq, overflowSlot, true
		}
	}
	if k.fifoLen > 0 {
		if f := &k.fifo[k.fifoHead]; !ok || f.at < at || f.at == at && f.seq < seq {
			return f.at, fifoSlot, true
		}
	}
	return at, slot, ok
}

// take removes and returns the action of the event next located and
// records its seq in nowSeq. The vacated entry is zeroed so the retired
// action — and everything it captures — is collectable immediately
// instead of being pinned by the backing array for the rest of the run.
func (k *Kernel) take(slot int) Action {
	if recording {
		k.record(opStep, 0, 0)
	}
	if slot < 0 {
		var e event
		if slot == fifoSlot {
			f := &k.fifo[k.fifoHead]
			e, *f = *f, event{}
			k.fifoHead = (k.fifoHead + 1) & (len(k.fifo) - 1)
			k.fifoLen--
		} else {
			e = k.overflow.pop()
		}
		k.nowSeq = e.seq
		return e.act
	}
	s := &k.wheel[slot]
	we := &s.ev[s.head]
	a := we.act
	k.nowSeq = we.key & seqMask
	*we = wev{}
	s.head++
	if s.head == s.n {
		s.head, s.n, s.dirty = 0, 0, false
		k.occupied[slot>>6] &^= 1 << uint(slot&63)
	}
	k.wheelCount--
	return a
}

// Step executes the earliest pending event. It reports false if the queue
// is empty, and then, as Run does at until, counts every issued seq as
// dispatched at now.
func (k *Kernel) Step() bool {
	at, slot, ok := k.next()
	if !ok {
		k.nowSeq = k.seq
		return false
	}
	a := k.take(slot)
	k.now = at
	k.count++
	a.Act()
	return true
}

// Run executes events until the queue is exhausted or the next event lies
// strictly after until; the clock is then advanced to until. Events at
// exactly until are executed.
// A stopped run leaves the clock at the last executed event rather than
// advancing it to until, so the caller can observe how far it got.
//
// An armed check (SetCheck) runs at slice boundaries: the loop processes
// up to one stride of events between polls, so the per-event cost of
// being cancelable is a register countdown, not loads of the check
// state — measured within noise of the unarmed loop (bench/'s
// sim.cancel_overhead row, budgeted by make overhead; an earlier
// per-event `count&mask` probe cost ~4% on the benchmark sweep). The
// countdown left over when Run returns resumes at the next call, so a
// run stepped through many Run calls is checked at the same events as
// one call; a stopped kernel owes a check and re-checks at once.
func (k *Kernel) Run(until Time) {
	if k.check != nil {
		for {
			if k.checkLeft == 0 {
				if err := k.check(); err != nil {
					k.stopErr = err
					return
				}
				k.checkLeft = k.checkMask + 1
			}
			var more bool
			if k.checkLeft, more = k.runSlice(until, k.checkLeft); !more {
				break
			}
		}
	} else {
		k.runSlice(until, ^uint64(0))
	}
	if k.now <= until {
		// Every event at or before until has run, so every seq issued
		// so far counts as dispatched at until: a position reserved
		// there and filed later would otherwise run after events that a
		// ScheduleAction at reservation time would have preceded.
		if recording {
			k.record(opAdvance, until-k.now, 0)
		}
		k.now = until
		k.nowSeq = k.seq
	}
}

// runSlice executes at most max events with timestamps at or before
// until and returns how many of the max it did not use. more is true
// when the slice was used up with the horizon not yet reached (more
// events may remain), false when the queue drained or the next event
// lies beyond until.
func (k *Kernel) runSlice(until Time, max uint64) (left uint64, more bool) {
	for ; max > 0; max-- {
		at, slot, ok := k.next()
		if !ok || at > until {
			return max, false
		}
		a := k.take(slot)
		k.now = at
		k.count++
		a.Act()
	}
	return 0, true
}

// RunAll executes every pending event, including events scheduled by other
// events, until the queue drains.
func (k *Kernel) RunAll() {
	for k.Step() {
	}
}
