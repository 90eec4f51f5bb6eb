package exp

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"memnet/internal/core"
	"memnet/internal/sim"
	"memnet/internal/topology"
	"memnet/internal/workload"
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

// TestRunSpecsDeterminism compares full Result structs between
// sequential and parallel execution of a batch.
func TestRunSpecsDeterminism(t *testing.T) {
	var specs []Spec
	for salt := uint64(0); salt < 4; salt++ {
		spec := tinySpec(core.PolicyAware, MechVWLROO)
		spec.SeedSalt = salt
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
	specs := r.collect(e.Run)
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
	specs := r.collect(e.Run)
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

// TestSweepSpeedup is the wall-clock acceptance criterion: a 32-cell
// sweep (four representative workloads × every topology × the FP and
// VWL+ROO extremes) at -jobs 4 must run at least 2x faster than at
// -jobs 1. Cells are hermetic and equal-weight, so anything below 2x on
// four real cores means the executor is serializing somewhere. Each
// width keeps its fastest of two rounds. Skipped on smaller machines,
// where the criterion is unmeasurable.
func TestSweepSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second wall-clock measurement")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need >= 4 CPUs for the speedup criterion, have %d", runtime.NumCPU())
	}
	var specs []Spec
	for _, name := range []string{"sp.D", "mixB", "mg.D", "mixC"} {
		wl, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, topo := range topology.Kinds {
			specs = append(specs,
				Spec{Workload: wl, Topology: topo, Size: Big, Mech: MechFP, Policy: core.PolicyNone,
					Alpha: 0.05, SimTime: 100 * sim.Microsecond, Warmup: 25 * sim.Microsecond},
				Spec{Workload: wl, Topology: topo, Size: Big, Mech: MechVWLROO, Policy: core.PolicyAware,
					Alpha: 0.05, SimTime: 100 * sim.Microsecond, Warmup: 25 * sim.Microsecond})
		}
	}
	wall := func(jobs int) time.Duration {
		var best time.Duration
		for round := 0; round < 2; round++ {
			start := time.Now()
			_, errs := RunSpecs(context.Background(), specs, jobs, nil, nil)
			if err := FirstErr(specs, errs); err != nil {
				t.Fatal(err)
			}
			if w := time.Since(start); round == 0 || w < best {
				best = w
			}
		}
		return best
	}
	seq, par := wall(1), wall(4)
	speedup := seq.Seconds() / par.Seconds()
	t.Logf("%d cells: -jobs 1 %v, -jobs 4 %v, speedup %.2fx", len(specs), seq, par, speedup)
	if speedup < 2 {
		t.Errorf("-jobs 4 speedup = %.2fx, want >= 2x", speedup)
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
