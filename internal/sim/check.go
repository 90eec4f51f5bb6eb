package sim

import "fmt"

// CheckInvariants verifies the event queue's structural invariants: every
// wheel slot holds its pending events in ev[head:n] with head <= n <=
// slotCap, a drained slot has rewound to head = n = 0, every entry
// outside ev[head:n] is zero (take and compaction clear what they
// vacate), pending keys are in order unless the slot is marked dirty
// (inserts are append-only and a dirty slot is re-sorted when it reaches
// the head of the wheel), every pending event carries an issued seq and
// lies after the current position (now, and the seq of the event being
// dispatched), the occupancy bitmap and event count agree with the slots,
// the overflow heap keeps its d-ary ordering, and the fixed-delay FIFO is
// a well-formed ring whose pending events are in strict (at, seq) order
// within one delay of now and whose other entries are zero. A wheel
// entry's slot and lap are implied by where it is filed, so it cannot sit
// in the wrong slot or past the horizon. It is O(numSlots·slotCap + pending)
// and read-only — meant for the audit layer's periodic sweeps, not the
// hot loop. A violation here means the queue has been corrupted and
// every later event could run out of order.
func (k *Kernel) CheckInvariants() error {
	resident := 0
	for idx := range k.wheel {
		s := &k.wheel[idx]
		head, n := int(s.head), int(s.n)
		if head < 0 || head > n || n > slotCap || head == n && n != 0 {
			return fmt.Errorf("sim: slot %d bounds head=%d n=%d invalid (capacity %d)", idx, head, n, slotCap)
		}
		occupied := k.occupied[idx>>6]&(1<<uint(idx&63)) != 0
		if occupied != (head < n) {
			return fmt.Errorf("sim: slot %d occupancy bit %v disagrees with %d pending events",
				idx, occupied, n-head)
		}
		start := k.slotStart(idx)
		for i := range s.ev {
			e := &s.ev[i]
			if i < head || i >= n {
				if e.key != 0 || e.act != nil {
					return fmt.Errorf("sim: slot %d retired entry %d not cleared (key %#x)", idx, i, e.key)
				}
				continue
			}
			if err := k.checkPending(start|Time(e.key>>seqBits), e.key&seqMask); err != nil {
				return fmt.Errorf("%w (wheel slot %d)", err, idx)
			}
			if !s.dirty && i > head && e.key < s.ev[i-1].key {
				return fmt.Errorf("sim: slot %d order violated at %d (key %#x after %#x)",
					idx, i, e.key, s.ev[i-1].key)
			}
		}
		resident += n - head
	}
	if resident != k.wheelCount {
		return fmt.Errorf("sim: wheel holds %d events but count says %d", resident, k.wheelCount)
	}
	n := len(k.overflow)
	if n > 0 {
		if err := k.checkPending(k.overflow[0].at, k.overflow[0].seq); err != nil {
			return fmt.Errorf("%w (overflow head)", err)
		}
	}
	for i := 1; i < n; i++ {
		p := (i - 1) / heapArity
		if k.overflow[i].before(&k.overflow[p]) {
			return fmt.Errorf("sim: overflow heap order violated at index %d (at=%s seq=%d) vs parent %d (at=%s seq=%d)",
				i, k.overflow[i].at, k.overflow[i].seq, p, k.overflow[p].at, k.overflow[p].seq)
		}
	}
	return k.checkFIFO()
}

// checkFIFO checks the fixed-delay FIFO's ring: bounds, strict (at, seq)
// order from the head, every pending event after the current position
// and filed at most one delay ago, and every other entry zero.
func (k *Kernel) checkFIFO() error {
	size := len(k.fifo)
	if size&(size-1) != 0 || k.fifoLen < 0 || k.fifoLen > size ||
		k.fifoHead < 0 || k.fifoHead >= max(size, 1) || k.fifoLen > 0 && k.fixed <= 0 {
		return fmt.Errorf("sim: fifo bounds head=%d len=%d invalid (ring %d, delay %s)", k.fifoHead, k.fifoLen, size, k.fixed)
	}
	var prev *event
	for i := 0; i < size; i++ {
		e := &k.fifo[(k.fifoHead+i)&(size-1)]
		if i >= k.fifoLen {
			if e.at != 0 || e.seq != 0 || e.act != nil {
				return fmt.Errorf("sim: fifo retired entry %d not cleared (at=%s seq=%d)", i, e.at, e.seq)
			}
			continue
		}
		if err := k.checkPending(e.at, e.seq); err != nil {
			return fmt.Errorf("%w (fifo entry %d)", err, i)
		}
		if e.at > k.now+k.fixed {
			return fmt.Errorf("sim: fifo entry %d at %s lies past one delay (%s) after now %s", i, e.at, k.fixed, k.now)
		}
		if prev != nil && !prev.before(e) {
			return fmt.Errorf("sim: fifo order violated at %d (at=%s seq=%d after at=%s seq=%d)",
				i, e.at, e.seq, prev.at, prev.seq)
		}
		prev = e
	}
	return nil
}

// checkPending checks one pending event's position: an issued seq, and
// strictly after the current position in (at, seq) order.
func (k *Kernel) checkPending(at Time, seq uint64) error {
	if seq == 0 || seq > k.seq {
		return fmt.Errorf("sim: event (at=%s) carries seq %d, never issued (last %d)", at, seq, k.seq)
	}
	if k.Passed(at, seq) {
		return fmt.Errorf("sim: event (at=%s seq=%d) precedes now %s (seq %d)", at, seq, k.now, k.nowSeq)
	}
	return nil
}
