package exp

import (
	"context"
	"errors"
	"strings"
	"testing"

	"memnet/internal/core"
	"memnet/internal/sim"
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

// TestRunCtxArmedChangesNothing pins that the armed cancellation check
// is pure observation: under a cancelable context that is never
// canceled — the state every memnetd job and interruptible CLI batch
// simulates in — a managed cell long enough to cross many check slices
// reproduces a plain Run exactly.
func TestRunCtxArmedChangesNothing(t *testing.T) {
	spec := tinySpec(core.PolicyAware, MechVWLROO)
	plain, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Events < 4*sim.DefaultCheckEvery {
		t.Fatalf("cell processed %d events, want several %d-event check slices", plain.Events, sim.DefaultCheckEvery)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	armed, err := RunCtx(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Events != armed.Events || plain.Throughput != armed.Throughput {
		t.Fatalf("armed RunCtx diverged from Run: %d/%v vs %d/%v",
			plain.Events, plain.Throughput, armed.Events, armed.Throughput)
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
	_, errs := RunSpecs(ctx, specs, 2, nil)
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

// TestBudgetIndependentOfMetrics pins that an event budget ends a
// metrics-armed cell exactly as it ends the unarmed one. The sampler
// steps Kernel.Run once per tick, and the kernel's check countdown
// carries across those calls, so both runs are checked at the same
// event counts: a budget just under the cell's events passes both, and
// one at the last check point stops both at the same event.
func TestBudgetIndependentOfMetrics(t *testing.T) {
	spec := tinySpec(core.PolicyNone, MechFP)
	plain, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	lastCheck := plain.Events / sim.DefaultCheckEvery * sim.DefaultCheckEvery
	if plain.Events-10 <= lastCheck {
		t.Fatalf("cell ends %d events past its last check, want more than 10", plain.Events-lastCheck)
	}
	armed := spec
	armed.MetricsInterval = 10 * sim.Microsecond
	outcome := func(s Spec, max uint64) string {
		_, err := RunBudgeted(context.Background(), s, Budget{MaxEvents: max})
		var be *BudgetError
		if errors.As(err, &be) {
			return be.Error()
		}
		if err != nil {
			t.Fatal(err)
		}
		return "done"
	}
	stopped := (&BudgetError{Events: lastCheck, MaxEvents: lastCheck}).Error()
	for _, c := range []struct {
		max  uint64
		want string
	}{{plain.Events - 10, "done"}, {lastCheck, stopped}} {
		for _, s := range []Spec{spec, armed} {
			if got := outcome(s, c.max); got != c.want {
				t.Errorf("budget %d of %d events, metrics interval %v: %q, want %q",
					c.max, plain.Events, s.MetricsInterval, got, c.want)
			}
		}
	}
}
