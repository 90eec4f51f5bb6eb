//go:build queuerecord

package sim_test

import (
	"context"
	"os"
	"testing"

	"memnet/internal/core"
	"memnet/internal/exp"
	"memnet/internal/sim"
	"memnet/internal/topology"
	"memnet/internal/workload"
)

// TestRecordQueueFixture rewrites testdata/chain_queue.bin, the schedule
// stream queue_replay_test.go replays: the first QueueFixtureEvents
// dispatches of a chain cell shaped like bench's chain-managed one (mixB
// on the big daisy chain under network-aware VWL+ROO). Run it with
//
//	go test -tags queuerecord -run TestRecordQueueFixture ./internal/sim
func TestRecordQueueFixture(t *testing.T) {
	wl, err := workload.ByName("mixB")
	if err != nil {
		t.Fatal(err)
	}
	spec := exp.Spec{
		Workload: wl, Topology: topology.DaisyChain, Size: exp.Big,
		Mech: exp.MechVWLROO, Policy: core.PolicyAware, Alpha: 0.05,
		SimTime: 40 * sim.Microsecond, Warmup: 10 * sim.Microsecond,
	}
	sim.QueueRecord, sim.QueueRecordLimit = []byte(sim.QueueFixtureMagic), sim.QueueFixtureEvents
	if _, err := exp.RunCtx(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(sim.QueueFixturePath, sim.QueueRecord, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d bytes", len(sim.QueueRecord))
}
