package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"memnet/internal/dram"
	"memnet/internal/exp"
	"memnet/internal/sim"
)

// benchmarkJSON is the part of ../BENCHMARK.json the program must agree
// with.
type benchmarkJSON struct {
	Workloads []struct {
		Name, Why string
	}
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// TestListMatchesBenchmarkJSON holds -list to BENCHMARK.json: the same
// workloads and metrics in the same order, with the same units and
// directions, every name well formed and every metric with a unit.
func TestListMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, w := range bj.Workloads {
		want = append(want, "workload "+w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1-200 characters", w.Name)
		}
	}
	for _, m := range bj.EndToEnd {
		want = append(want, strings.Join([]string{"end_to_end", m.Name, m.Unit, m.Better}, " "))
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bj.PerLayer {
		want = append(want, strings.Join([]string{"per_layer", m.Name, m.Unit, m.Better}, " "))
	}
	var got bytes.Buffer
	printList(&got)
	if g, w := strings.TrimSpace(got.String()), strings.Join(want, "\n"); g != w {
		t.Errorf("-list disagrees with BENCHMARK.json\n got:\n%s\nwant:\n%s", g, w)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(got.String()), "\n") {
		f := strings.Fields(line)
		if seen[f[1]] || !name.MatchString(f[1]) {
			t.Errorf("name %q is repeated or malformed", f[1])
		}
		seen[f[1]] = true
		if f[0] != "workload" && (len(f) != 4 || !unit.MatchString(f[2])) {
			t.Errorf("metric %q needs a well-formed unit", line)
		}
	}
	if !seen["setup_s"] {
		t.Error("BENCHMARK.json must define setup_s")
	}
}

// smokeScale shrinks the simulator workloads' cells for the tests.
const smokeScale = 50

// TestTracedCells checks, per workload at 1/50 scale, that traced runs
// repeat exactly and agree with exp.RunCtx on the same cell.
func TestTracedCells(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		spec := cellSpec(scaled(w, smokeScale), 1, 1)
		a, err := traceCell(ctx, newTracer(), 0, spec)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		b, err := traceCell(ctx, newTracer(), 0, spec)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two traced runs differ:\n%+v\n%+v", w.name, a, b)
		}
		res, err := exp.RunCtx(ctx, spec)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if d := relDiff(a.res.LinksPerAccess, res.LinksPerAccess); d > 0.01 {
			t.Errorf("%s: traced links/access %g vs exp.RunCtx %g", w.name, a.res.LinksPerAccess, res.LinksPerAccess)
		}
		if d := relDiff(float64(a.res.Events), float64(res.Events)); d > 0.03 {
			t.Errorf("%s: traced events %d vs exp.RunCtx %d", w.name, a.res.Events, res.Events)
		}
	}
}

// TestModelChangeFailsEveryCheckedCell perturbs DRAM tCL by 1 ns through
// Spec.DRAM: every reference cell must then fail its digest check.
func TestModelChangeFailsEveryCheckedCell(t *testing.T) {
	ctx := context.Background()
	cfg := dram.DefaultConfig()
	cfg.TCL += sim.Nanosecond
	expected := map[string]digest{}
	clean, perturbed := newOutcome(), newOutcome()
	for _, w := range workloads {
		spec := referenceSpec(scaled(w, smokeScale))
		res, err := exp.RunCtx(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		expected[w.name] = digestOf(res)
		if _, err := checkReference(ctx, clean, w.name, spec, expected); err != nil {
			t.Fatal(err)
		}
		spec.DRAM = &cfg
		if _, err := checkReference(ctx, perturbed, w.name, spec, expected); err != nil {
			t.Fatal(err)
		}
	}
	if clean.failed != 0 {
		t.Errorf("unperturbed: %d of %d cells failed", clean.failed, clean.attempted)
	}
	if perturbed.failed != perturbed.attempted {
		t.Errorf("tCL+1ns: failed_frac %d/%d, want 1", perturbed.failed, perturbed.attempted)
	}
}

// TestSmokeRuns runs every workload's untraced path at 1/50 scale, the
// daemon's against a freshly built memnetd, and checks each prints
// exactly the end-to-end metrics with no failure.
func TestSmokeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds memnetd")
	}
	ctx := context.Background()
	dir := t.TempDir()
	bin := filepath.Join(dir, "memnetd")
	if out, err := exec.Command("go", "build", "-o", bin, "memnet/cmd/memnetd").CombinedOutput(); err != nil {
		t.Fatalf("build memnetd: %v\n%s", err, out)
	}
	pins, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	opt := options{seed: 2, seconds: time.Second, memnetd: bin, tmp: dir, expected: map[string]digest{}}
	for _, w := range workloads {
		w = scaled(w, smokeScale)
		if w.daemon {
			opt.expected[w.name] = pins[w.name]
		} else {
			res, err := exp.RunCtx(ctx, referenceSpec(w))
			if err != nil {
				t.Fatal(err)
			}
			opt.expected[w.name] = digestOf(res)
		}
		run := runSim
		if w.daemon {
			run = runDaemon
		}
		o, err := run(ctx, w, opt)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		var line bytes.Buffer
		if err := report(&line, o, endToEnd); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		var got struct {
			Correct bool
			Metrics map[string]json.RawMessage
		}
		if err := json.Unmarshal(line.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		if !got.Correct || len(got.Metrics) != len(endToEnd) {
			t.Errorf("%s: %s", w.name, line.String())
		}
	}
}
