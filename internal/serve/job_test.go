package serve

import (
	"context"
	"testing"
)

// TestSubscribeConcurrentWithFinishSeesDone polls subscribe while
// another goroutine finishes the job: the first subscription that finds
// the job terminal gets no live channel, so its replay must already hold
// the "done" event, exactly once. A finish that marked the job terminal
// before publishing "done" left a window in which such a subscriber got
// neither.
func TestSubscribeConcurrentWithFinishSeesDone(t *testing.T) {
	for i := 0; i < 500; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		j := newJob("j", []string{"k"}, ctx, cancel)
		j.publish("status", j.status(false))
		finished := make(chan struct{})
		go func() {
			defer close(finished)
			j.finish(StateDone, "", j.status(false))
		}()
		for {
			replay, ch := j.subscribe()
			if ch != nil {
				j.unsubscribe(ch) // still live: poll again
				continue
			}
			dones := 0
			for _, ev := range replay {
				if ev.Type == "done" {
					dones++
				}
			}
			if dones != 1 {
				t.Fatalf("iteration %d: terminal job replayed %d done events, want 1", i, dones)
			}
			break
		}
		<-finished
	}
}
