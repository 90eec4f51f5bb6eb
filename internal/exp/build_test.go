package exp

import (
	"reflect"
	"testing"

	"memnet/internal/core"
	"memnet/internal/sim"
)

// TestBuildSteppedMatchesRun pins that a simulation from Build, stepped
// in 100 µs epochs the way memnetsim -trace and memnetviz step it, is the
// run Run measures: same event count, same fault and timeout outcome.
// The spec arms everything a hand-built copy could silently drop — a
// fault scenario, request timeouts with retries, the watchdog and the
// auditor — so a stepper that rebuilt the model by hand would diverge.
func TestBuildSteppedMatchesRun(t *testing.T) {
	spec := tinySpec(core.PolicyAware, MechVWLROO)
	spec.Warmup = 100 * sim.Microsecond
	spec.SimTime = 200 * sim.Microsecond
	spec.Faults = sweepScenario()
	spec.RequestTimeout = 2 * sim.Microsecond
	spec.MaxRetries = 2
	spec.Watchdog = true
	spec.AuditEvery = 64

	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	const epoch = 100 * sim.Microsecond
	for now := epoch; now <= spec.Warmup+spec.SimTime; now += epoch {
		s.Kernel.Run(now)
	}
	if err := s.Finish(); err != nil {
		t.Fatal(err)
	}
	if got := s.Kernel.Processed(); got != res.Events {
		t.Fatalf("stepped run processed %d events, Run reports %d", got, res.Events)
	}
	if got := s.FrontEnd.FaultStats(); got != res.FrontEndFaults {
		t.Errorf("front-end fault stats %+v, Run reports %+v", got, res.FrontEndFaults)
	}
	if got := s.FrontEnd.TimedOutIDs(); !reflect.DeepEqual(got, res.TimedOutIDs) {
		t.Errorf("timed-out IDs %v, Run reports %v", got, res.TimedOutIDs)
	}
	if res.FaultsInjected.Total() == 0 || len(res.TimedOutIDs) == 0 {
		t.Errorf("spec exercised no faults (%+v) or timeouts (%d): the check proves nothing",
			res.FaultsInjected, len(res.TimedOutIDs))
	}
}

// TestBuildRejectsBadSpec: Build fails before wiring anything when the
// spec has no workload.
func TestBuildRejectsBadSpec(t *testing.T) {
	if _, err := Build(Spec{}); err == nil {
		t.Fatal("Build accepted a spec without a workload")
	}
}
