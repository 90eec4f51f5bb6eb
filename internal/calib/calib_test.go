package calib

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"memnet/internal/dram"
	"memnet/internal/power"
	"memnet/internal/sim"
)

// defaultModel is the published configuration under test.
func defaultModel() *model {
	return &model{dram: dram.DefaultConfig(), pm: power.DefaultModel()}
}

// dramFieldRows maps every dram.Config field to the reference row that
// pins it. TestDRAMConfigFullyPinned walks the struct by reflection, so
// adding a field without a reference row fails the suite.
var dramFieldRows = map[string]string{
	"Vaults":     "dram.vaults",
	"Banks":      "dram.banks",
	"QueueDepth": "dram.queue-depth",
	"LineBytes":  "dram.line-bytes",
	"BusBits":    "dram.bus-bits",
	"BusGbps":    "dram.bus-gbps",
	"TCL":        "dram.tCL",
	"TRCD":       "dram.tRCD",
	"TRAS":       "dram.tRAS",
	"TRP":        "dram.tRP",
	"TRRD":       "dram.tRRD",
	"TWR":        "dram.tWR",
	"TREFI":      "dram.tREFI",
	"TRFC":       "dram.tRFC",
}

func TestDRAMConfigFullyPinned(t *testing.T) {
	ref := Default()
	typ := reflect.TypeOf(dram.Config{})
	for i := 0; i < typ.NumField(); i++ {
		field := typ.Field(i).Name
		rowName, ok := dramFieldRows[field]
		if !ok {
			t.Errorf("dram.Config field %s has no reference row: add it to reference.json and dramFieldRows", field)
			continue
		}
		if _, ok := ref.Row(rowName); !ok {
			t.Errorf("dram.Config field %s maps to %q, which is not in reference.json", field, rowName)
		}
	}
	if len(dramFieldRows) != typ.NumField() {
		t.Errorf("dramFieldRows has %d entries for %d dram.Config fields (stale mapping?)", len(dramFieldRows), typ.NumField())
	}
}

// Every published constant must pin exactly: the table-driven form of
// "don't edit Table I without the reference noticing". Failure messages
// name the published source row so a drifted constant is traceable.
func TestConstantPinning(t *testing.T) {
	m := defaultModel()
	for _, row := range Default().Rows {
		eval, ok := evaluators[row.Name]
		if !ok {
			t.Errorf("row %q (%s) has no evaluator", row.Name, row.Source)
			continue
		}
		got, err := eval(m)
		if err != nil {
			t.Errorf("row %q (%s): %v", row.Name, row.Source, err)
			continue
		}
		if res := scoreRow(row, got); !res.OK {
			t.Errorf("row %q: simulator value %.10g disagrees with %s published value %.10g (rel err %.3g > tol %.3g)",
				row.Name, got, row.Source, row.Value, res.Err, row.TolRel)
		}
	}
}

// The evaluator set and the reference table must be in bijection.
func TestEvaluatorsMatchReference(t *testing.T) {
	ref := Default()
	for _, row := range ref.Rows {
		if _, ok := evaluators[row.Name]; !ok {
			t.Errorf("reference row %q has no evaluator", row.Name)
		}
	}
	for name := range evaluators {
		if _, ok := ref.Row(name); !ok {
			t.Errorf("evaluator %q has no reference row", name)
		}
	}
}

func TestEvaluatePassesOnPublishedModel(t *testing.T) {
	rep, err := Evaluate(Options{SkipSensitivity: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass() {
		for _, r := range rep.Rows {
			if !r.OK {
				t.Errorf("row %q: got %.10g want %.10g (err %.3g)", r.Row.Name, r.Got, r.Row.Value, r.Err)
			}
		}
		t.Fatal("published model does not pass its own calibration")
	}
	if len(rep.Rows) != len(Default().Rows) {
		t.Fatalf("report has %d rows for %d reference rows", len(rep.Rows), len(Default().Rows))
	}
	if !rep.SensSkipped || len(rep.Bands) != 0 {
		t.Fatal("SkipSensitivity did not skip the sweep")
	}
}

// Perturbing one published timing constant must fail the calibration:
// the pinning row for the constant itself, the Eq. 1 floor derived from
// it, and every simulated end-to-end latency row.
func TestPerturbationDetected(t *testing.T) {
	cfg := dram.DefaultConfig()
	cfg.TCL += sim.Nanosecond
	rep, err := Evaluate(Options{DRAM: &cfg, SkipSensitivity: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass() {
		t.Fatal("calibration passed with tCL perturbed by 1 ns")
	}
	mustFail := []string{"dram.tCL", "eq1.read-floor", "sim.read-latency-d1", "sim.read-latency-d2", "sim.read-latency-d4"}
	failed := map[string]bool{}
	for _, r := range rep.Rows {
		if !r.OK {
			failed[r.Row.Name] = true
		}
	}
	for _, name := range mustFail {
		if !failed[name] {
			t.Errorf("row %q did not fail under tCL+1ns", name)
		}
	}
	for name := range failed {
		found := false
		for _, want := range mustFail {
			if name == want {
				found = true
			}
		}
		if !found {
			t.Errorf("unexpected row %q failed under tCL+1ns", name)
		}
	}
}

// Perturbing the power model must likewise be caught, in the static rows
// and in the simulated idle floors.
func TestPowerPerturbationDetected(t *testing.T) {
	pm := power.DefaultModel()
	pm.PeakWatts = 14.0
	rep, err := Evaluate(Options{Power: &pm, SkipSensitivity: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass() {
		t.Fatal("calibration passed with PeakWatts at 14.0 W")
	}
	failed := map[string]bool{}
	for _, r := range rep.Rows {
		if !r.OK {
			failed[r.Row.Name] = true
		}
	}
	for _, name := range []string{"power.peak-high", "power.peak-low", "idle.watts-high", "idle.watts-low"} {
		if !failed[name] {
			t.Errorf("row %q did not fail under PeakWatts=14", name)
		}
	}
}

// scoreRow's zero-value rule: relative error when the published value is
// nonzero, absolute when it is zero.
func TestScoreRowZeroValue(t *testing.T) {
	r := scoreRow(Row{Value: 0, TolRel: 0.5}, 0.25)
	if !r.OK || r.Err != 0.25 {
		t.Fatalf("zero-value row: err=%g ok=%v, want absolute 0.25 ok", r.Err, r.OK)
	}
	r = scoreRow(Row{Value: 10, TolRel: 0.01}, 10.05)
	if !r.OK || math.Abs(r.Err-0.005) > 1e-12 {
		t.Fatalf("relative row: err=%g ok=%v, want 0.005 ok", r.Err, r.OK)
	}
}

// The rendered report must be a pure function of the model + reference.
func TestRenderDeterministic(t *testing.T) {
	render := func() string {
		rep, err := Evaluate(Options{SkipSensitivity: true})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Render()
	}
	a, b := render(), render()
	if a != b {
		t.Fatal("two identical calibration passes rendered differently")
	}
	for _, want := range []string{"model calibration report", "dram.tCL", "Table I", "verdict: PASS", "sensitivity sweep: skipped"} {
		if !strings.Contains(a, want) {
			t.Errorf("report is missing %q", want)
		}
	}
	if strings.Contains(a, "FAIL") {
		t.Error("passing report contains FAIL")
	}
}

// The full pass (sweep included) must be deterministic at any jobs value
// and pass the declared bands. This is the expensive test of the package
// (~1 s): it runs the 21-cell sweep twice.
func TestEvaluateFullDeterministicAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("sensitivity sweep in -short mode")
	}
	run := func(jobs int) string {
		rep, err := Evaluate(Options{Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Pass() {
			for _, b := range rep.Bands {
				if !b.OK {
					t.Errorf("band %q: elasticity %.4f outside [%g, %g]", b.Band.Name, b.Elasticity, b.Band.Min, b.Band.Max)
				}
			}
			for _, r := range rep.Rows {
				if !r.OK {
					t.Errorf("row %q: got %.10g want %.10g", r.Row.Name, r.Got, r.Row.Value)
				}
			}
			t.Fatal("full calibration failed")
		}
		return rep.Render()
	}
	if a, b := run(1), run(4); a != b {
		t.Fatal("report differs between -jobs 1 and -jobs 4")
	}
}
