package sim

import "fmt"

// CheckInvariants verifies the event queue's structural invariants: every
// wheel slot's pending keys are in order unless the slot is marked dirty
// (inserts are append-only and a dirty slot is re-sorted when it reaches
// the head of the wheel), every pending event carries an issued seq and
// lies after the current position (now, and the seq of the event being
// dispatched), the occupancy bitmap and event count agree with the slots,
// and the overflow heap keeps its d-ary ordering. A wheel entry's slot
// and lap are implied by where it is filed, so it cannot sit in the
// wrong slot or past the horizon. It is O(pending) and read-only — meant
// for the audit layer's periodic sweeps, not the hot loop. A violation
// here means the queue has been corrupted and every later event could run
// out of order.
func (k *Kernel) CheckInvariants() error {
	resident := 0
	for idx := range k.wheel {
		s := &k.wheel[idx]
		occupied := k.occupied[idx>>6]&(1<<uint(idx&63)) != 0
		if occupied != (int(s.head) < len(s.ev)) {
			return fmt.Errorf("sim: slot %d occupancy bit %v disagrees with %d pending events",
				idx, occupied, len(s.ev)-int(s.head))
		}
		start := k.slotStart(idx)
		for i := int(s.head); i < len(s.ev); i++ {
			key := s.ev[i].key
			if err := k.checkPending(start|Time(key>>seqBits), key&seqMask); err != nil {
				return fmt.Errorf("%w (wheel slot %d)", err, idx)
			}
			if !s.dirty && i > int(s.head) && key < s.ev[i-1].key {
				return fmt.Errorf("sim: slot %d order violated at %d (key %#x after %#x)",
					idx, i, key, s.ev[i-1].key)
			}
		}
		resident += len(s.ev) - int(s.head)
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
	return nil
}

// checkPending checks one pending event's position: an issued seq, and
// strictly after the current position in (at, seq) order.
func (k *Kernel) checkPending(at Time, seq uint64) error {
	if seq == 0 || seq > k.seq {
		return fmt.Errorf("sim: event (at=%s) carries seq %d, never issued (last %d)", at, seq, k.seq)
	}
	if at < k.now || at == k.now && seq <= k.nowSeq {
		return fmt.Errorf("sim: event (at=%s seq=%d) precedes now %s (seq %d)", at, seq, k.now, k.nowSeq)
	}
	return nil
}
