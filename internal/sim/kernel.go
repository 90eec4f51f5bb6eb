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
// timings and think jitter (tens of ns), plus the ROO off-check
// thresholds (32 ns – 2.05 us) — so the wheel's horizon has to cover
// that whole cluster: 1024 slots of 2048 ps span 2.1 us. Events past the
// horizon (epoch ticks, burst phases, timeouts, watchdogs) go to a
// spill-over min-heap; see DESIGN.md §12 for the determinism argument.
const (
	// granularityBits sets the slot width to 2^11 = 2048 ps. Wider slots
	// mean a few distinct instants share a slot (the stable insert loop
	// shifts them into place), but they shrink the slot-header array to
	// 1024 entries — small enough to stay cache-resident, which matters
	// more than shift-free inserts because inserts hash to effectively
	// random slots.
	granularityBits = 11
	// slotBits sets the wheel size to 2^10 = 1024 slots: with 2048 ps
	// slots the horizon is 2.1 us, wide enough that the longest ROO
	// off-check (2048 ns) still files into the wheel instead of the
	// spill-over heap.
	slotBits = 10
	numSlots = 1 << slotBits
	slotMask = numSlots - 1
	// bitmapWords is the occupancy bitmap size: one bit per slot.
	bitmapWords = numSlots / 64
	// slotCap is each slot's inline event capacity. Steady-state
	// occupancy is a couple of events per occupied slot, so 4 covers
	// almost every slot for the life of the run.
	slotCap = 4
	// spillCap is the capacity a slot jumps to when it outgrows its
	// inline buffer. Pile-ups past slotCap are routine (a burst of
	// same-window completions), and letting append ratchet 8 → 16 → 32
	// as rare coincidences set new per-slot records kept a slow trickle
	// of allocations going for the whole run; jumping straight to a
	// depth records essentially never pass makes the spill a one-time
	// warmup cost per slot (TestRunSteadyStateZeroAllocs holds the
	// simulation to ~0 mallocs once warmed).
	spillCap = 64
	// seqBits is the width of the sequence number in a wheel key. A
	// key packs an event's offset within its slot (the low
	// granularityBits bits of at) above its seq, so one uint64 compare
	// orders two events of a slot by (at, seq). 2^53 sequence numbers
	// last ~2.8 years of simulation at 10^8 events/s; ScheduleAction
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

// wheelSlot is one slot's pending events. Inserts are pure appends; the
// dirty flag records whether an append broke key order, and next sorts
// ev[head:] the moment the slot becomes the drain candidate. Deferring
// the sort moves the shifting work from insert time — when the slot is a
// random, cold cache line — to drain time, when the slot is about to be
// walked anyway, and slots that fill in key order (the common case)
// never sort at all. Retired entries before head are zeroed; the slice
// resets to its start once drained, so steady state reuses each slot's
// backing array with no allocation.
//
// ev initially aliases the inline buf, so the header and the entries an
// insert touches share adjacent cache lines — inserts hash to
// effectively random slots, and colocating storage with the header is
// the difference between one cache miss and two on the hottest write in
// the simulator. The rare slot that outgrows buf reallocates
// independently and never returns. head is an int32 so the header packs
// into the pad before buf, keeping the struct at two entries' worth of
// header per four entries of storage.
type wheelSlot struct {
	ev    []wev
	head  int32
	dirty bool
	buf   [slotCap]wev
}

// sortPending restores key — that is (at, seq) — order over the unread
// tail of the slot with an insertion sort. Keys are unique, so the
// result does not depend on the order the entries arrived in.
func (s *wheelSlot) sortPending() {
	ev := s.ev
	for i := int(s.head) + 1; i < len(ev); i++ {
		e := ev[i]
		j := i
		for j > int(s.head) && ev[j-1].key > e.key {
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
// slotMask], far-future events spill into a monomorphic 4-ary min-heap.
// An event's slot position is unambiguous — the insert window is exactly
// one revolution, so two resident events can never collide a lap apart —
// and the next event is the (at, seq) minimum of the first occupied
// slot's head and the heap head, which is the exact total order the
// deterministic-replay tests pin. Steady-state Schedule+Step performs
// zero heap allocations (see TestKernelScheduleStepZeroAllocs and
// BenchmarkKernelScheduleStep).
type Kernel struct {
	now   Time
	seq   uint64
	count uint64
	// nowSeq is the seq of the event dispatched last at now (0 when none
	// was): ScheduleActionSeq refuses positions at or before (now, nowSeq).
	nowSeq uint64

	// Cooperative cancellation: when check is armed (non-nil), Run calls
	// it once every checkMask+1 processed events and stops — recording
	// the error in stopErr — the moment it returns non-nil. Run slices
	// its loop on the stride (see runSlice), so arming costs the hot
	// path nothing per event; the amortized check cost is well under 1%
	// of event throughput (bench/'s sim.cancel_overhead row, budgeted by
	// make overhead).
	checkMask uint64
	check     func() error
	stopErr   error

	// wheelCount is the number of events resident in the wheel; it
	// short-circuits the bitmap scan when the wheel is empty.
	wheelCount int
	// overflow holds events at or beyond the wheel horizon. They are
	// popped straight from the heap when their time comes — never
	// migrated — so ordering needs no cascade step.
	overflow heapQ
	// occupied has one bit per slot, set while the slot holds events, so
	// finding the next occupied slot is a word scan, not a slot walk.
	occupied [bitmapWords]uint64
	wheel    [numSlots]wheelSlot
}

// NewKernel returns a kernel with some overflow capacity preallocated
// and every wheel slot's ev aliasing its inline buffer — without that,
// each slot's first events cost a growth chain of small allocations
// (numSlots of them, per kernel), which dominated warmup in profiles.
func NewKernel() *Kernel {
	k := &Kernel{overflow: make(heapQ, 0, 256)}
	for i := range k.wheel {
		s := &k.wheel[i]
		s.ev = s.buf[:0:slotCap]
	}
	return k
}

// DefaultCheckEvery is SetCheck's stride when none is given: frequent
// enough that an abandoned run stops within a few milliseconds of wall
// time at the simulator's measured throughput, rare enough that the
// check function's cost amortizes to nothing.
const DefaultCheckEvery = 1 << 14

// SetCheck arms cooperative cancellation: Run calls fn about once every
// `every` processed events (rounded up to a power of two; 0 means
// DefaultCheckEvery) and stops early when fn returns a non-nil error,
// which Err then reports. Callers poll a context, a budget, or a
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
func (k *Kernel) Pending() int { return k.wheelCount + len(k.overflow) }

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

// ReserveSeq consumes the next sequence number without scheduling
// anything and returns it. A caller that may or may not need an event
// reserves its position in the total order now — exactly as
// ScheduleAction would have — and files it later, if at all, with
// ScheduleActionSeq.
func (k *Kernel) ReserveSeq() uint64 {
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
	if at < k.now || at == k.now && seq <= k.nowSeq {
		panic("sim: scheduling event at a position already dispatched")
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

// wheelInsert files the event into its slot. The slot is append-only:
// an arrival whose key sorts before the slot's last entry — a later
// instant was filed first, or a reserved seq is filed late — just marks
// the slot dirty, and sortPending restores key order when the slot
// reaches the head of the wheel.
func (k *Kernel) wheelInsert(at Time, seq uint64, a Action) {
	idx := int((at >> granularityBits) & slotMask)
	s := &k.wheel[idx]
	n := len(s.ev)
	if int(s.head) == n {
		// Fully drained: rewind so the backing array is reused in place.
		s.ev = s.ev[:0]
		s.head = 0
		s.dirty = false
		n = 0
	}
	if n == cap(s.ev) {
		newCap := 2 * n
		if newCap < spillCap {
			newCap = spillCap
		}
		grown := make([]wev, n, newCap)
		copy(grown, s.ev)
		s.ev = grown
	}
	key := wheelKey(at, seq)
	s.ev = append(s.ev, wev{key: key, act: a})
	if n > int(s.head) && key < s.ev[n-1].key {
		s.dirty = true
	}
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
// the wheel slot index, or -1 when the minimum sits in the overflow heap.
// A wheel/overflow tie at the same instant goes to the smaller seq: a
// reserved seq filed late can land in the wheel behind an overflow event
// scheduled after the reservation. Locate and removal are split so Run
// can bounds-check the next event with a single min-scan instead of a
// peek-then-pop pair.
func (k *Kernel) next() (at Time, slot int, ok bool) {
	if k.wheelCount == 0 {
		if len(k.overflow) == 0 {
			return 0, -1, false
		}
		return k.overflow[0].at, -1, true
	}
	idx := k.wheelMinSlot()
	s := &k.wheel[idx]
	if s.dirty {
		s.sortPending()
	}
	key := s.ev[s.head].key
	at = k.slotStart(idx) | Time(key>>seqBits)
	if len(k.overflow) > 0 {
		if o := &k.overflow[0]; o.at < at || o.at == at && o.seq < key&seqMask {
			return o.at, -1, true
		}
	}
	return at, idx, true
}

// take removes and returns the action of the event next located and
// records its seq in nowSeq. The vacated entry is zeroed so the retired
// action — and everything it captures — is collectable immediately
// instead of being pinned by the backing array for the rest of the run.
func (k *Kernel) take(slot int) Action {
	if slot < 0 {
		e := k.overflow.pop()
		k.nowSeq = e.seq
		return e.act
	}
	s := &k.wheel[slot]
	we := &s.ev[s.head]
	a := we.act
	k.nowSeq = we.key & seqMask
	*we = wev{}
	s.head++
	if int(s.head) == len(s.ev) {
		s.ev = s.ev[:0]
		s.head = 0
		s.dirty = false
		k.occupied[slot>>6] &^= 1 << uint(slot&63)
	}
	k.wheelCount--
	return a
}

// Step executes the earliest pending event. It reports false if the queue
// is empty.
func (k *Kernel) Step() bool {
	at, slot, ok := k.next()
	if !ok {
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
// per-event `count&mask` probe cost ~4% on the benchmark sweep).
func (k *Kernel) Run(until Time) {
	if k.check != nil {
		for {
			if err := k.check(); err != nil {
				k.stopErr = err
				return
			}
			if !k.runSlice(until, k.checkMask+1) {
				break
			}
		}
	} else {
		k.runSlice(until, ^uint64(0))
	}
	if k.now < until {
		k.now = until
		k.nowSeq = 0
	}
}

// runSlice executes at most max events with timestamps at or before
// until. It reports true when the slice was used up with the horizon
// not yet reached (more events may remain), false when the queue
// drained or the next event lies beyond until.
func (k *Kernel) runSlice(until Time, max uint64) bool {
	for ; max > 0; max-- {
		at, slot, ok := k.next()
		if !ok || at > until {
			return false
		}
		a := k.take(slot)
		k.now = at
		k.count++
		a.Act()
	}
	return true
}

// RunAll executes every pending event, including events scheduled by other
// events, until the queue drains.
func (k *Kernel) RunAll() {
	for k.Step() {
	}
}
