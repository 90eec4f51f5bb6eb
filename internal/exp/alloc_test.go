package exp

import (
	"runtime"
	"testing"

	"memnet/internal/core"
	"memnet/internal/sim"
	"memnet/internal/topology"
	"memnet/internal/workload"
)

// runMallocs executes one cell and returns the mallocs and simulated
// events it cost the process. Construction allocations are included —
// callers difference two runs of the same spec to isolate the
// steady-state cost.
func runMallocs(t *testing.T, spec Spec) (mallocs, events uint64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := Run(spec)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return after.Mallocs - before.Mallocs, res.Events
}

// TestRunSteadyStateZeroAllocs is the simulation-level counterpart of
// the kernel's zero-alloc benchmarks: once a cell is warmed up, running
// it LONGER must not allocate. Two runs of the same spec differ only in
// SimTime, so differencing their malloc counts cancels the identical
// construction/warmup cost and isolates what the extra simulated time
// allocated. The pooled event and packet free lists (deliver, off-check,
// DRAM completion, burst and issue actions; the per-link packet
// pool) plus the timing wheel's in-place slot reuse make that difference
// a handful of runtime-background allocations against hundreds of
// thousands of extra events — 0 allocs/op to three decimal places.
func TestRunSteadyStateZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-microsecond cells")
	}
	for _, tc := range []struct {
		name string
		topo topology.Kind
	}{
		{"daisychain", topology.DaisyChain},
		{"star", topology.Star},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wl, err := workload.ByName("mixB")
			if err != nil {
				t.Fatal(err)
			}
			spec := Spec{
				Workload: wl, Topology: tc.topo, Size: Small,
				Mech: MechFP, Policy: core.PolicyNone, Alpha: 0.05,
				Warmup: 25 * sim.Microsecond, AuditEvery: -1,
			}
			short, long := spec, spec
			short.SimTime = 100 * sim.Microsecond
			long.SimTime = 900 * sim.Microsecond

			// One throwaway run so lazy runtime/test-harness state is
			// initialized before anything is measured.
			if _, err := Run(short); err != nil {
				t.Fatal(err)
			}

			mShort, evShort := runMallocs(t, short)
			mLong, evLong := runMallocs(t, long)
			extraEv := evLong - evShort
			if extraEv < 100_000 {
				t.Fatalf("extension added only %d events; spec too small to measure", extraEv)
			}
			var extra uint64
			if mLong > mShort {
				extra = mLong - mShort
			}
			// The budget absorbs runtime background noise (GC worker
			// wakeups, timer churn), not simulation allocations: even 64
			// mallocs over ~10^5-10^6 extra events rounds to 0.000/op.
			const budget = 64
			t.Logf("%s: +%d events cost %d mallocs (%.6f/op)",
				tc.name, extraEv, extra, float64(extra)/float64(extraEv))
			if extra > budget {
				t.Fatalf("steady state allocates: %d extra mallocs over %d extra events (%.6f/op, budget %d total)",
					extra, extraEv, float64(extra)/float64(extraEv), budget)
			}
		})
	}
}
