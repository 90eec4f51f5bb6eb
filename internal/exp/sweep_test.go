package exp

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"memnet/internal/core"
	"memnet/internal/fault"
	"memnet/internal/sim"
)

// sweepFigures is the generator subset the determinism tests render: it
// covers plain sweeps (fig5), FP-baseline pairing (fig11, fig16), the
// link-hour histogram merge (fig13) and result-dependent rows (tableII).
var sweepFigures = []string{"tableII", "fig5", "fig11", "fig13", "fig16"}

// renderFigures renders sweepFigures through the parallel executor and
// concatenates the output.
func renderFigures(r *Runner) string {
	var b strings.Builder
	for _, name := range sweepFigures {
		e, ok := Lookup(name)
		if !ok {
			panic("unknown experiment " + name)
		}
		b.WriteString(r.Generate(e))
		b.WriteString("\n")
	}
	return b.String()
}

// TestGenerateByteIdenticalAcrossJobs is the determinism guarantee the
// sweep executor advertises: -jobs 1 (legacy sequential) and -jobs 8
// produce byte-identical table/figure output.
func TestGenerateByteIdenticalAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy generator sweep")
	}
	seq := tinyRunner()
	seq.Jobs = 1
	par := tinyRunner()
	par.Jobs = 8
	a, b := renderFigures(seq), renderFigures(par)
	if a != b {
		t.Fatalf("figure output differs between -jobs 1 and -jobs 8:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s", a, b)
	}
	if len(a) < 200 {
		t.Fatalf("suspiciously small figure output (%d bytes)", len(a))
	}
}

// sweepScenario exercises every nondeterminism-prone fault path: RNG
// target selection (Link/Module = -1), a CRC corruption burst, and a
// permanent link failure.
func sweepScenario() fault.Scenario {
	return fault.Scenario{
		Seed: 7,
		Events: []fault.Event{
			{At: fault.Duration(15 * sim.Microsecond), Kind: fault.CorruptBurst,
				Link: -1, BER: 1e-4, Duration: fault.Duration(5 * sim.Microsecond)},
			{At: fault.Duration(25 * sim.Microsecond), Kind: fault.LinkFail, Link: -1},
		},
	}
}

// TestGenerateByteIdenticalAcrossJobsWithFaults re-runs the figure-output
// determinism check with a fault scenario attached to every cell — the
// guard that PR 1's seeded-fault reproducibility survives the pool.
func TestGenerateByteIdenticalAcrossJobsWithFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy generator sweep")
	}
	make := func(jobs int) *Runner {
		r := tinyRunner()
		r.Jobs = jobs
		r.Faults = sweepScenario()
		return r
	}
	a, b := renderFigures(make(1)), renderFigures(make(8))
	if a != b {
		t.Fatalf("faulted figure output differs between -jobs 1 and -jobs 8:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s", a, b)
	}
}

// TestRunSpecsFaultDeterminism compares full Result structs — including
// the timeout-expiry-order fixture TimedOutIDs and injected-fault counts —
// between sequential and parallel execution of a faulted, timed-out batch.
func TestRunSpecsFaultDeterminism(t *testing.T) {
	var specs []Spec
	for salt := uint64(0); salt < 4; salt++ {
		spec := tinySpec(core.PolicyAware, MechVWLROO)
		spec.SeedSalt = salt
		spec.Faults = sweepScenario()
		spec.RequestTimeout = 2 * sim.Microsecond
		spec.MaxRetries = 1
		specs = append(specs, spec)
	}
	seq, errs := RunSpecs(context.Background(), specs, 1, nil, nil)
	if err := FirstErr(specs, errs); err != nil {
		t.Fatal(err)
	}
	par, errs := RunSpecs(context.Background(), specs, 8, nil, nil)
	if err := FirstErr(specs, errs); err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if !reflect.DeepEqual(seq[i], par[i]) {
			t.Errorf("cell %d diverged:\nseq: %+v\npar: %+v", i, seq[i], par[i])
		}
	}
}

// TestRunSpecsPreservesOrder checks results land at their input index, not
// in completion order.
func TestRunSpecsPreservesOrder(t *testing.T) {
	var specs []Spec
	for salt := uint64(0); salt < 6; salt++ {
		spec := tinySpec(core.PolicyNone, MechFP)
		spec.SeedSalt = salt
		specs = append(specs, spec)
	}
	results, errs := RunSpecs(context.Background(), specs, 3, nil, nil)
	if err := FirstErr(specs, errs); err != nil {
		t.Fatal(err)
	}
	if len(results) != len(specs) {
		t.Fatalf("got %d results for %d specs", len(results), len(specs))
	}
	for i, res := range results {
		if res.Spec.SeedSalt != specs[i].SeedSalt {
			t.Fatalf("result %d carries salt %d, want %d", i, res.Spec.SeedSalt, specs[i].SeedSalt)
		}
	}
}

// TestRunSpecsReportsFirstErrorInOrder checks the error contract: the
// input-order-first failure is reported even when later cells also fail.
func TestRunSpecsReportsFirstErrorInOrder(t *testing.T) {
	good := tinySpec(core.PolicyNone, MechFP)
	specs := []Spec{good, {}, {}} // nil workloads fail validation
	_, errs := RunSpecs(context.Background(), specs, 4, nil, nil)
	if err := FirstErr(specs, errs); err == nil || !strings.Contains(err.Error(), "run 1") {
		t.Fatalf("err = %v, want first failure at run 1", err)
	}
}

// TestCollectEnumeratesWithoutSimulating checks the collect pass records
// every distinct cell a generator sweeps while running zero simulations.
func TestCollectEnumeratesWithoutSimulating(t *testing.T) {
	r := tinyRunner()
	fresh := 0
	r.Progress = func(string) { fresh++ }
	e, _ := Lookup("fig5")
	specs := r.Collect(e.Run)
	if fresh != 0 {
		t.Fatalf("collect pass ran %d simulations", fresh)
	}
	// fig5 with one workload: 2 sizes x 4 topologies, FP only.
	if len(specs) != 8 {
		t.Fatalf("collected %d cells, want 8", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.Key()] {
			t.Fatalf("duplicate cell %s", s.Key())
		}
		seen[s.Key()] = true
		if s.SimTime != r.SimTime || s.Warmup != r.Warmup {
			t.Fatalf("collected cell not normalized: %+v", s)
		}
	}
}

// TestPrefetchWarmsCacheInSweepOrder checks Prefetch commits results and
// progress lines in sweep order, and that the following render is pure
// cache hits.
func TestPrefetchWarmsCacheInSweepOrder(t *testing.T) {
	r := tinyRunner()
	r.Jobs = 4
	var lines []string
	r.Progress = func(s string) { lines = append(lines, s) }
	e, _ := Lookup("fig5")
	specs := r.Collect(e.Run)
	r.Prefetch(specs)
	if len(lines) != len(specs) {
		t.Fatalf("progress reported %d runs, want %d", len(lines), len(specs))
	}
	for i, s := range specs {
		if !strings.Contains(lines[i], s.Key()) {
			t.Fatalf("progress line %d = %q, want spec %s", i, lines[i], s.Key())
		}
	}
	lines = nil
	_ = e.Run(r)
	if len(lines) != 0 {
		t.Fatalf("render after prefetch ran %d fresh simulations", len(lines))
	}
}

// TestGenerateMatchesSequentialExperimentRun pins Generate's contract for
// every registered generator shape that the reduced sweep supports.
func TestGenerateMatchesSequentialExperimentRun(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy generator sweep")
	}
	for _, name := range []string{"fig6", "fig12", "summary"} {
		e, _ := Lookup(name)
		seq := tinyRunner()
		seq.Jobs = 1
		par := tinyRunner()
		par.Jobs = 8
		if a, b := seq.Generate(e), par.Generate(e); a != b {
			t.Errorf("%s differs between -jobs 1 and -jobs 8:\n%s\nvs\n%s", name, a, b)
		}
	}
}

// TestMeasureSweep smoke-tests the BENCH_sweep.json pipeline on a
// miniature sweep and checks the JSON round-trips.
func TestMeasureSweep(t *testing.T) {
	var specs []Spec
	for salt := uint64(0); salt < 3; salt++ {
		spec := tinySpec(core.PolicyNone, MechFP)
		spec.SimTime = 40 * sim.Microsecond
		spec.Warmup = 10 * sim.Microsecond
		spec.SeedSalt = salt
		specs = append(specs, spec)
	}
	b, err := MeasureSweep(specs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if b.Cells != 3 || b.Events == 0 || b.WallSeqSec <= 0 || b.WallParSec <= 0 {
		t.Fatalf("incomplete measurement: %+v", b)
	}
	path := t.TempDir() + "/BENCH_sweep.json"
	if err := b.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "speedup") {
		t.Fatalf("summary missing speedup: %s", b)
	}
}

// TestSweepSpeedup is the wall-clock acceptance criterion: the standard
// sweep at -jobs 4 must run at least 2x faster than -jobs 1. Cells are
// hermetic and equal-weight, so anything below 2x on four real cores
// means the executor is serializing somewhere. Skipped on smaller
// machines, where the criterion is unmeasurable.
func TestSweepSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second wall-clock measurement")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need >= 4 CPUs for the speedup criterion, have %d", runtime.NumCPU())
	}
	specs, err := BenchSweepSpecs(100*sim.Microsecond, 25*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MeasureSweep(specs, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(b)
	if b.Speedup < 2 {
		t.Errorf("-jobs 4 speedup = %.2fx, want >= 2x", b.Speedup)
	}
}

// TestBenchSweepSpecs pins the standard benchmark sweep's shape.
func TestBenchSweepSpecs(t *testing.T) {
	specs, err := BenchSweepSpecs(100*sim.Microsecond, 25*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 32 {
		t.Fatalf("standard sweep has %d cells, want 32 (4 wl x 4 topo x 2 mech)", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		k := s.Key()
		if seen[k] {
			t.Fatalf("duplicate cell %s", k)
		}
		seen[k] = true
	}
}

// ExampleRunner_Generate shows the parallel figure path end to end.
func ExampleRunner_Generate() {
	r := tinyRunner()
	r.Jobs = 4
	e, _ := Lookup("tableIII")
	out := r.Generate(e)
	fmt.Println(strings.Count(out, "\n") > 1)
	// Output: true
}
