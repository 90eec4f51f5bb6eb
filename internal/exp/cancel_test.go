package exp

import (
	"context"
	"errors"
	"strings"
	"testing"

	"memnet/internal/core"
)

// TestRunCtxCanceledAborts pins the end-to-end cancellation path: a
// pre-canceled context must abort the cell inside the kernel run loop
// (check stride 1 here, so immediately) and surface context.Canceled.
func TestRunCtxCanceledAborts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := tinySpec(core.PolicyNone, MechFP)
	_, err := RunBudgeted(ctx, spec, Budget{CheckEvery: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "aborted after") {
		t.Fatalf("error should report the abort point: %v", err)
	}
}

// TestRunBudgetedEventBudget pins that the event budget stops the run
// within one check interval of the threshold and reports a *BudgetError.
func TestRunBudgetedEventBudget(t *testing.T) {
	spec := tinySpec(core.PolicyNone, MechFP)
	const maxEvents, stride = 5000, 64
	_, err := RunBudgeted(context.Background(), spec, Budget{MaxEvents: maxEvents, CheckEvery: stride})
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BudgetError", err)
	}
	if be.MaxEvents != maxEvents {
		t.Fatalf("MaxEvents = %d, want %d", be.MaxEvents, maxEvents)
	}
	if be.Events < maxEvents || be.Events > maxEvents+stride {
		t.Fatalf("stopped at %d events, want within one %d-event interval past %d",
			be.Events, stride, maxEvents)
	}
}

// TestRunCtxBackgroundUnarmed pins that RunCtx with a background context
// and no budget never arms the kernel check: a plain Run and a
// background RunCtx produce identical results.
func TestRunCtxBackgroundUnarmed(t *testing.T) {
	spec := tinySpec(core.PolicyNone, MechFP)
	plain, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctxed, err := RunCtx(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Events != ctxed.Events || plain.Throughput != ctxed.Throughput {
		t.Fatalf("RunCtx(Background) diverged from Run: %d/%v vs %d/%v",
			plain.Events, plain.Throughput, ctxed.Events, ctxed.Throughput)
	}
}

// TestRunSpecsCanceled pins the pool-level contract: with a canceled
// context every unstarted cell fails fast with ctx.Err() and nothing
// simulates.
func TestRunSpecsCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	specs := []Spec{
		tinySpec(core.PolicyNone, MechFP),
		tinySpec(core.PolicyNone, MechVWL),
		tinySpec(core.PolicyUnaware, MechFP),
	}
	_, errs := RunSpecs(ctx, specs, 2, nil, nil)
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cell %d: err = %v, want context.Canceled", i, err)
		}
	}
}

// TestRunnerCtxThreadsToCells pins that a Runner with a canceled Ctx
// records every sweep cell as a failure instead of simulating it.
func TestRunnerCtxThreadsToCells(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := NewRunner()
	r.Ctx = ctx
	r.Jobs = 2
	r.Prefetch([]Spec{
		tinySpec(core.PolicyNone, MechFP),
		tinySpec(core.PolicyNone, MechVWL),
	})
	fails := r.Failures()
	if len(fails) != 2 {
		t.Fatalf("failures = %d, want 2: %+v", len(fails), fails)
	}
	for _, f := range fails {
		if !errors.Is(f.Err, context.Canceled) {
			t.Fatalf("failure %s: %v, want context.Canceled", f.Key, f.Err)
		}
	}
}
