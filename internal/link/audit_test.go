package link

import (
	"strings"
	"testing"

	"memnet/internal/audit"
	"memnet/internal/packet"
	"memnet/internal/sim"
)

// TestLegalTransitionLattice pins the full state lattice.
func TestLegalTransitionLattice(t *testing.T) {
	legal := map[[2]State]bool{
		{StateOn, StateOff}:     true,
		{StateOff, StateWaking}: true,
		{StateWaking, StateOn}:  true,
	}
	states := []State{StateOn, StateOff, StateWaking}
	for _, from := range states {
		for _, to := range states {
			want := legal[[2]State{from, to}]
			if got := legalTransition(from, to); got != want {
				t.Errorf("legalTransition(%s, %s) = %v, want %v", from, to, got, want)
			}
		}
	}
}

// TestSetStateReportsIllegalTransition checks that a lattice breach is
// reported with the offending transition (and that the state still
// changes, so the caller's bug — not a secondary cascade — is what the
// diagnostics show).
func TestSetStateReportsIllegalTransition(t *testing.T) {
	k, l, _ := testLink(t, Config{})
	a := audit.New(audit.Config{}, k.Now)
	l.AttachAudit(a)
	l.setState(StateWaking) // on -> waking skips the off state
	if a.Count() != 1 {
		t.Fatalf("violations = %d, want 1", a.Count())
	}
	v := a.Violations()[0]
	if v.Component != "link[0]" || v.Rule != "state-lattice" || !strings.Contains(v.Detail, "on -> waking") {
		t.Fatalf("violation = %+v", v)
	}
	if l.State() != StateWaking {
		t.Fatalf("state = %v, want the transition applied anyway", l.State())
	}
	// A waking link must come on, never fall back off.
	before := a.Count()
	l.setState(StateOff)
	if a.Count() != before+1 {
		t.Fatal("waking -> off transition not reported")
	}
}

// TestAuditEnqueueDirectionKind checks the sampled per-packet check: an
// upstream (response) packet on a request link is a wiring bug.
func TestAuditEnqueueDirectionKind(t *testing.T) {
	k, l, _ := testLink(t, Config{})
	a := audit.New(audit.Config{SampleEvery: 1}, k.Now)
	l.AttachAudit(a)
	l.Enqueue(pkt(1, packet.ReadReq)) // correct direction
	if a.Count() != 0 {
		t.Fatalf("clean enqueue reported %d violations", a.Count())
	}
	l.Enqueue(pkt(2, packet.ReadResp)) // response on a request link
	if a.Count() != 1 {
		t.Fatalf("violations = %d, want 1", a.Count())
	}
	if v := a.Violations()[0]; v.Rule != "direction-kind" {
		t.Fatalf("violation = %+v", v)
	}
}

// TestAuditCleanTrafficNoViolations drives VWL+ROO traffic with churn at
// full sampling rate and requires a clean audit: the sweep's bounds
// (buffer, modes, energy monotonicity, busy time) hold on a healthy link.
func TestAuditCleanTrafficNoViolations(t *testing.T) {
	k, l, _ := testLink(t, Config{Mechanism: MechVWL, ROO: true, Wakeup: 14 * sim.Nanosecond})
	a := audit.New(audit.Config{SampleEvery: 1, SweepEvery: 8}, k.Now)
	l.AttachAudit(a)
	rng := sim.NewRNG(99)
	var id uint64
	for burst := 0; burst < 40; burst++ {
		at := k.Now() + sim.Duration(rng.Uint64()%uint64(2*sim.Microsecond))
		k.Schedule(at, func() {
			for i := 0; i < int(rng.Uint64()%6); i++ {
				id++
				l.Enqueue(pkt(id, packet.ReadReq))
			}
		})
		k.RunAll()
		l.MaybeTurnOff() // exercise the ROO lattice between bursts
	}
	a.RunSweeps()
	if a.Count() != 0 {
		t.Fatalf("healthy link reported %d violations: %v", a.Count(), a.Violations())
	}
	if a.Observations() == 0 {
		t.Fatal("auditor observed nothing — hooks not wired")
	}
}

// TestAuditSweepCatchesCorruptedState corrupts link accounting directly
// and checks the sweep notices each class of breach.
func TestAuditSweepCatchesCorruptedState(t *testing.T) {
	k, l, _ := testLink(t, Config{})
	a := audit.New(audit.Config{}, k.Now)
	l.AttachAudit(a)
	l.Enqueue(pkt(1, packet.ReadReq))
	k.RunAll()

	l.bwMode = NumModes(MechNone) + 3 // out of range
	a.RunSweeps()
	if a.Count() == 0 {
		t.Fatal("bw-mode corruption not detected")
	}
	found := false
	for _, v := range a.Violations() {
		if v.Rule == "bw-mode-range" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no bw-mode-range violation in %v", a.Violations())
	}

	l.bwMode = 0
	l.energyActive = -1 // negative energy is never physical
	a.RunSweeps()
	found = false
	for _, v := range a.Violations() {
		if v.Rule == "energy-sign" || v.Rule == "energy-monotone" {
			found = true
		}
	}
	if !found {
		t.Fatalf("energy corruption not detected: %v", a.Violations())
	}
}
