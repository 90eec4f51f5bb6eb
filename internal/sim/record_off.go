//go:build !queuerecord

package sim

// recording is false outside -tags queuerecord, so the recorder hooks
// compile away.
const recording = false

func (k *Kernel) record(op int, delta Duration, age uint64) {}
