package exp

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"memnet/internal/audit"
	"memnet/internal/core"
	"memnet/internal/sim"
	"memnet/internal/topology"
)

// TestAuditChangesNothing is the core guarantee the auditor advertises:
// it is observational, so a fully audited run (stride 1) and an unaudited
// run produce identical Results field for field.
func TestAuditChangesNothing(t *testing.T) {
	for _, cfg := range []struct {
		pol  core.PolicyKind
		mech Mech
	}{
		{core.PolicyNone, MechFP},
		{core.PolicyAware, MechVWLROO},
		{core.PolicyUnaware, MechDVFSROO},
	} {
		plain := tinySpec(cfg.pol, cfg.mech)
		plain.AuditEvery = -1
		audited := tinySpec(cfg.pol, cfg.mech)
		audited.AuditEvery = 1
		a, err := Run(plain)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(audited)
		if err != nil {
			t.Fatalf("%s/%s audited run failed: %v", cfg.pol, cfg.mech, err)
		}
		a.Spec.AuditEvery, b.Spec.AuditEvery = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s/%s: audited run diverged from unaudited:\nplain:   %+v\naudited: %+v",
				cfg.pol, cfg.mech, a, b)
		}
	}
}

// TestAuditKeyInsensitive pins that AuditEvery is excluded from the memo/
// journal key: audited and unaudited runs of the same cell must share
// cache entries (the auditor cannot change the result).
func TestAuditKeyInsensitive(t *testing.T) {
	a := tinySpec(core.PolicyNone, MechFP)
	b := a
	b.AuditEvery = 1
	if a.Key() != b.Key() {
		t.Fatalf("AuditEvery leaked into the spec key:\n%s\n%s", a.Key(), b.Key())
	}
}

// TestAuditPropertyAllTopologies is the full-rate property test: random
// traffic audited at stride 1, on every topology and two seeds. A
// violation anywhere — conservation, buffer bounds, state lattice,
// latency floors, energy accounting — fails the run.
func TestAuditPropertyAllTopologies(t *testing.T) {
	for _, topo := range topology.Kinds {
		for salt := uint64(0); salt < 2; salt++ {
			spec := tinySpec(core.PolicyAware, MechVWLROO)
			spec.Topology = topo
			spec.SeedSalt = salt
			spec.AuditEvery = 1
			if _, err := Run(spec); err != nil {
				t.Errorf("%v salt %d: %v", topo, salt, err)
			}
		}
	}
}

// TestAuditPropertyHealthyFullSweep audits the whole mechanism matrix at
// full rate.
func TestAuditPropertyHealthyFullSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy full-rate audit sweep")
	}
	for _, topo := range topology.Kinds {
		for _, m := range []Mech{MechFP, MechVWL, MechROO, MechVWLROO, MechDVFS, MechDVFSROO} {
			spec := tinySpec(core.PolicyAware, m)
			spec.Topology = topo
			spec.AuditEvery = 1
			if _, err := Run(spec); err != nil {
				t.Errorf("%v/%s: %v", topo, m, err)
			}
		}
	}
}

// TestAuditedFiguresByteIdentical renders the determinism figure subset
// with the auditor at full rate and compares bytes against the unaudited
// render — the figure-level version of TestAuditChangesNothing.
func TestAuditedFiguresByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy generator sweep")
	}
	off := tinyRunner()
	off.Audit = -1
	on := tinyRunner()
	on.Audit = 1
	a, b := renderFigures(off), renderFigures(on)
	if a != b {
		t.Fatalf("audited figure output differs from unaudited:\n--- off ---\n%s\n--- on ---\n%s", a, b)
	}
}

// TestAuditViolationFailsCellGracefully injects a violation through the
// test seam and checks the runner records a structured failure for that
// cell only, while the sweep completes.
func TestAuditViolationFailsCellGracefully(t *testing.T) {
	bad := tinySpec(core.PolicyNone, MechFP)
	badKey := bad.Key()
	orig := runImpl
	runImpl = func(ctx context.Context, s Spec, b Budget) (Result, error) {
		if s.Key() == badKey && s.Mech == MechFP && s.Policy == core.PolicyNone {
			e := &audit.Error{Total: 1, Violations: []audit.Violation{
				{Component: "link[0]", Rule: "buffer-bound", Time: 5 * sim.Microsecond, Detail: "synthetic"},
			}}
			return Result{}, e
		}
		return runBudgeted(ctx, s, b)
	}
	defer func() { runImpl = orig }()

	r := tinyRunner()
	r.Jobs = 1
	res := r.Run(bad)
	if res.Hist == nil {
		t.Fatal("failed cell returned nil Hist placeholder")
	}
	fails := r.Failures()
	if len(fails) != 1 {
		t.Fatalf("recorded %d failures, want 1", len(fails))
	}
	var ae *audit.Error
	if !errors.As(fails[0].Err, &ae) || ae.Total != 1 {
		t.Fatalf("failure did not preserve the audit error: %v", fails[0].Err)
	}
	good := tinySpec(core.PolicyAware, MechVWLROO)
	if res := r.Run(good); res.Throughput <= 0 {
		t.Fatal("healthy cell did not run after the failed one")
	}
}
