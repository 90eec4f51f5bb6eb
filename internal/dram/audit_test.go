package dram

import (
	"testing"

	"memnet/internal/audit"
	"memnet/internal/sim"
)

// TestAuditCleanTrafficNoViolations hammers the stack with enough
// requests to saturate vault queues and requires a clean full-rate audit.
func TestAuditCleanTrafficNoViolations(t *testing.T) {
	k, d := newDRAM(t)
	a := audit.New(audit.Config{SampleEvery: 1, SweepEvery: 16}, k.Now)
	d.AttachAudit(a, 3)
	rng := sim.NewRNG(5)
	done := 0
	for i := 0; i < 400; i++ {
		addr := rng.Uint64()
		read := rng.Float64() < 0.7
		k.Schedule(k.Now()+sim.Duration(rng.Intn(int(20*sim.Nanosecond))), func() {
			d.Access(addr, read, func() { done++ })
		})
		if i%50 == 49 {
			k.RunAll()
		}
	}
	k.RunAll()
	a.RunSweeps()
	if a.Count() != 0 {
		t.Fatalf("healthy DRAM reported %d violations: %v", a.Count(), a.Violations())
	}
	if done == 0 {
		t.Fatal("no accesses completed")
	}
}

// TestAuditCatchesNegativeOutstandingReads corrupts the completion
// counter and checks the sweep reports it against the attached module
// name.
func TestAuditCatchesNegativeOutstandingReads(t *testing.T) {
	k, d := newDRAM(t)
	a := audit.New(audit.Config{}, k.Now)
	d.AttachAudit(a, 7)
	d.outstandingReads = -2
	a.RunSweeps()
	if a.Count() == 0 {
		t.Fatal("negative outstanding reads not detected")
	}
	v := a.Violations()[0]
	if v.Component != "dram[7]" || v.Rule != "outstanding-reads" {
		t.Fatalf("violation = %+v", v)
	}
}

// TestAuditCatchesReadCountOutOfRange corrupts a vault's queued-read
// count past its queue length — serviceNext would then treat a queued
// write as a read — and checks the sweep reports it.
func TestAuditCatchesReadCountOutOfRange(t *testing.T) {
	k, d := newDRAM(t)
	a := audit.New(audit.Config{}, k.Now)
	d.AttachAudit(a, 2)
	d.Access(0, false, nil) // enters service
	d.Access(0, false, nil) // queued
	a.RunSweeps()
	if a.Count() != 0 {
		t.Fatalf("clean state reported %v", a.Violations())
	}
	d.vaults[0].reads = 2
	a.RunSweeps()
	if a.Count() != 1 {
		t.Fatalf("read count past the queue: %d violations, want 1: %v", a.Count(), a.Violations())
	}
	if v := a.Violations()[0]; v.Component != "dram[2]" || v.Rule != "vault-read-count" {
		t.Fatalf("violation = %+v", v)
	}
	d.vaults[0].reads = 0
	k.RunAll()
}

// TestAuditCatchesStatsRegression rewinds a statistics counter between
// sweeps.
func TestAuditCatchesStatsRegression(t *testing.T) {
	k, d := newDRAM(t)
	a := audit.New(audit.Config{}, k.Now)
	d.AttachAudit(a, 0)
	d.Access(0, true, func() {})
	k.RunAll()
	a.RunSweeps()
	if a.Count() != 0 {
		t.Fatalf("clean run reported %v", a.Violations())
	}
	d.stats.Reads-- // counters must never run backwards
	a.RunSweeps()
	found := false
	for _, v := range a.Violations() {
		if v.Rule == "stats-monotone" {
			found = true
		}
	}
	if !found {
		t.Fatalf("stats regression not detected: %v", a.Violations())
	}
}
