//go:build queuerecord

package sim

import "encoding/binary"

// recording compiles the queue recorder's hooks into the kernel.
const recording = true

// QueueRecord collects every kernel's queue operations, encoded as
// record.go describes, until QueueRecordLimit events have been
// dispatched. Record one cell at a time. They are package variables, not
// kernel fields, because exp.Build schedules a cell's first events on
// the kernel it creates before returning it.
var (
	QueueRecord      []byte
	QueueRecordLimit int
	recordSteps      int // dispatches not yet written
	recordDispatched int
)

func (k *Kernel) record(op int, delta Duration, age uint64) {
	if recordDispatched >= QueueRecordLimit {
		return
	}
	if op == opStep {
		recordSteps++
		if recordDispatched++; recordDispatched == QueueRecordLimit {
			flushQueueRecord()
		}
		return
	}
	flushQueueRecord()
	QueueRecord = binary.AppendUvarint(QueueRecord, uint64(delta)<<opBits|uint64(op))
	if op == opFile {
		QueueRecord = binary.AppendUvarint(QueueRecord, age)
	}
}

// flushQueueRecord writes out the dispatches not yet recorded.
func flushQueueRecord() {
	if recordSteps > 0 {
		QueueRecord = binary.AppendUvarint(QueueRecord, uint64(recordSteps)<<opBits|opStep)
		recordSteps = 0
	}
}
