package exp

import (
	"testing"

	"memnet/internal/core"
	"memnet/internal/sim"
)

// TestBuildSteppedMatchesRun pins that a simulation from Build, stepped
// in 100 µs epochs with Kernel.Run the way the metrics registry steps
// it, is the run Run measures: same event count and the same management
// outcome. The spec arms the auditor and the aware manager, which a
// hand-built copy could silently drop, so a stepper that rebuilt the
// model by hand would diverge.
func TestBuildSteppedMatchesRun(t *testing.T) {
	spec := tinySpec(core.PolicyAware, MechVWLROO)
	spec.Warmup = 100 * sim.Microsecond
	spec.SimTime = 200 * sim.Microsecond
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
	s.audit.RunSweeps()
	if err := s.audit.Err(); err != nil {
		t.Fatal(err)
	}
	if got := s.Kernel.Processed(); got != res.Events {
		t.Fatalf("stepped run processed %d events, Run reports %d", got, res.Events)
	}
	if v, g := s.Manager.Violations(); v != res.Violations || g != res.Granted {
		t.Errorf("stepped run saw %d violations (%d granted), Run reports %d (%d)",
			v, g, res.Violations, res.Granted)
	}
}

// TestBuildRejectsBadSpec: Build fails before wiring anything when the
// spec has no workload.
func TestBuildRejectsBadSpec(t *testing.T) {
	if _, err := Build(Spec{}); err == nil {
		t.Fatal("Build accepted a spec without a workload")
	}
}
