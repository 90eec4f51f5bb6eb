package sim

// The queue operations a recorded schedule stream holds (built with
// -tags queuerecord; see record_on.go and testdata/chain_queue.bin). A
// record is one uvarint: the op in its low opBits bits and, above them,
// the delta from now (for opStep, the count of consecutive dispatches).
// An opFile record is followed by a second uvarint, the age of its
// reserved seq: the kernel's last issued seq less it.
const (
	opStep     = iota // events dispatched
	opSchedule        // ScheduleAction
	opFIFO            // AfterFixed into the FIFO
	opReserve         // ReserveSeq
	opFile            // ScheduleActionSeq
	opAdvance         // Run moved the clock to until
	opBits     = 3
)
