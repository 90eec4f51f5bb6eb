package exp

import (
	"errors"
	"strings"
	"testing"

	"memnet/internal/core"
	"memnet/internal/sim"
	"memnet/internal/topology"
	"memnet/internal/workload"
)

// tinyProfile keeps harness tests fast: small footprint, modest rate.
func tinyProfile() *workload.Profile {
	return &workload.Profile{
		Name: "tiny", Class: "test", Apps: "synthetic",
		FootprintGB: 8, ReadFraction: 0.7, TargetChannelUtil: 0.3,
		BurstPeriod: 4 * sim.Microsecond, BurstDuty: 0.7,
		AccessCDF: []workload.CDFPoint{{GB: 4, Cum: 0.7}, {GB: 8, Cum: 1}},
	}
}

func tinySpec(pol core.PolicyKind, mech Mech) Spec {
	return Spec{
		Workload: tinyProfile(),
		Topology: topology.Star,
		Size:     Small,
		Mech:     mech,
		Policy:   pol,
		Alpha:    0.05,
		SimTime:  150 * sim.Microsecond,
		Warmup:   50 * sim.Microsecond,
	}
}

func TestRunProducesCompleteResult(t *testing.T) {
	res, err := Run(tinySpec(core.PolicyNone, MechFP))
	if err != nil {
		t.Fatal(err)
	}
	if res.Modules != 2 {
		t.Fatalf("modules = %d, want 2 (8GB/4GB)", res.Modules)
	}
	if res.Throughput <= 0 || res.ChannelUtil <= 0 || res.LinkUtil <= 0 {
		t.Fatalf("empty metrics: %+v", res)
	}
	if res.Power.Total() <= 0 || res.PerHMC.Total() <= 0 {
		t.Fatal("no power measured")
	}
	if res.LinksPerAccess < 1 {
		t.Fatalf("links/access = %v", res.LinksPerAccess)
	}
	if res.AvgReadLatency < 30*sim.Nanosecond {
		t.Fatalf("latency = %v", res.AvgReadLatency)
	}
	if res.IdleIOFraction() <= 0 || res.IdleIOFraction() >= 1 {
		t.Fatalf("idle fraction = %v", res.IdleIOFraction())
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(tinySpec(core.PolicyAware, MechVWLROO))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tinySpec(core.PolicyAware, MechVWLROO))
	if err != nil {
		t.Fatal(err)
	}
	if a.Throughput != b.Throughput || a.Power.Total() != b.Power.Total() ||
		a.Events != b.Events {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestSeedIndependentOfPolicy(t *testing.T) {
	// Paired comparisons need identical arrival processes across
	// policies.
	a := tinySpec(core.PolicyNone, MechFP)
	b := tinySpec(core.PolicyAware, MechVWLROO)
	if a.seed() != b.seed() {
		t.Fatal("seed depends on policy/mechanism")
	}
	c := b
	c.Size = Big
	if c.seed() == b.seed() {
		t.Fatal("seed ignores size")
	}
}

func TestManagementSavesPowerWithinAlpha(t *testing.T) {
	r := NewRunner()
	r.SimTime = 150 * sim.Microsecond
	r.Warmup = 50 * sim.Microsecond
	spec := tinySpec(core.PolicyUnaware, MechVWLROO)
	res := r.Run(spec)
	fp := r.FPBaseline(spec)
	if res.Power.Total() >= fp.Power.Total() {
		t.Fatalf("management saved nothing: %v vs %v", res.Power.Total(), fp.Power.Total())
	}
	if deg := r.PerfDegradation(res); deg > 0.12 {
		t.Fatalf("degradation %.1f%% far beyond alpha", 100*deg)
	}
}

func TestRunnerCaches(t *testing.T) {
	r := NewRunner()
	r.SimTime = 100 * sim.Microsecond
	r.Warmup = 20 * sim.Microsecond
	fresh := 0
	r.Progress = func(string) { fresh++ }
	spec := tinySpec(core.PolicyNone, MechFP)
	r.Run(spec)
	r.Run(spec)
	if fresh != 1 {
		t.Fatalf("fresh runs = %d, want 1 (cache)", fresh)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Spec{}); err == nil {
		t.Fatal("nil workload accepted")
	}
	bad := tinySpec(core.PolicyNone, MechFP)
	bad.Workload = &workload.Profile{Name: "broken"}
	if _, err := Run(bad); err == nil {
		t.Fatal("invalid workload accepted")
	}
	// A negative warmup fails the range check; it used to run the
	// default warmup.
	bad = tinySpec(core.PolicyNone, MechFP)
	bad.Warmup = -sim.Microsecond
	var fe *FieldError
	if _, err := Run(bad); !errors.As(err, &fe) || fe.Field != "warmup" {
		t.Fatalf("warmup -1us: err = %v, want a FieldError naming warmup", err)
	}
	// The build applies PeakWatts as given, so a negative one is refused.
	bad = tinySpec(core.PolicyNone, MechFP)
	bad.PeakWatts = -1
	if _, err := Run(bad); !errors.As(err, &fe) || fe.Field != "peak_watts" {
		t.Fatalf("PeakWatts -1: err = %v, want a FieldError naming peak_watts", err)
	}
	// BuildNetwork, trace replay's builder, runs the same check with no
	// workload.
	bad = tinySpec(core.PolicyAware, MechVWLROO)
	bad.Workload, bad.Alpha = nil, 0
	if _, _, err := BuildNetwork(sim.NewKernel(), bad, 2); !errors.As(err, &fe) || fe.Field != "alpha" {
		t.Fatalf("BuildNetwork with aware alpha 0: err = %v, want a FieldError naming alpha", err)
	}
}

func TestMechStrings(t *testing.T) {
	for m, want := range map[Mech]string{
		MechFP: "FP", MechVWL: "VWL", MechROO: "ROO",
		MechVWLROO: "VWL+ROO", MechDVFS: "DVFS", MechDVFSROO: "DVFS+ROO",
	} {
		if m.String() != want {
			t.Errorf("%+v.String() = %q, want %q", m, m.String(), want)
		}
	}
}

func TestSizes(t *testing.T) {
	if Small.ChunkGB() != 4 || Big.ChunkGB() != 1 {
		t.Fatal("chunk sizes wrong")
	}
	if Small.String() != "small" || Big.String() != "big" {
		t.Fatal("size names wrong")
	}
}

func TestRegistryCoversEveryEvaluationArtifact(t *testing.T) {
	// The paper's evaluation artifacts: tables I-III, figures 4-18
	// (excluding schematics 7, 10, 14), §VII-A, plus the summary.
	want := []string{"tableI", "tableII", "tableIII", "fig4", "fig5", "fig6",
		"fig8", "fig9", "fig11", "fig12", "fig13", "fig15", "fig16", "fig17",
		"fig18", "static", "alphasweep", "scaling", "seeds", "summary"}
	for _, name := range want {
		if _, ok := Lookup(name); !ok {
			t.Errorf("experiment %q missing", name)
		}
	}
	if len(Registry) != len(want) {
		t.Errorf("registry has %d entries, want %d", len(Registry), len(want))
	}
	seen := map[string]bool{}
	for _, n := range Names() {
		if seen[n] {
			t.Errorf("duplicate experiment %q", n)
		}
		seen[n] = true
	}
}

func TestLightExperimentsRender(t *testing.T) {
	r := NewRunner()
	r.SimTime = 100 * sim.Microsecond
	r.Warmup = 20 * sim.Microsecond
	for _, name := range []string{"tableI", "tableIII", "fig4"} {
		e, _ := Lookup(name)
		out := e.Run(r)
		if !strings.Contains(out, ":") || len(out) < 50 {
			t.Errorf("%s rendered %q", name, out)
		}
	}
}

func TestTableFormatting(t *testing.T) {
	tbl := NewTable("T", "a", "bb")
	tbl.Row("x", "1")
	tbl.Rowf("y", "%.1f", 2.0)
	out := tbl.String()
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "x") || !strings.Contains(out, "2.0") {
		t.Fatalf("table output:\n%s", out)
	}
	if pct(0.125) != "12.5%" || watts(1.234) != "1.23W" {
		t.Fatal("formatters broken")
	}
}

func TestTableCSV(t *testing.T) {
	tbl := NewTable("T", "a", "b")
	tbl.Row("x,y", "1")
	tbl.Row(`quote"d`, "2")
	csv := tbl.CSV()
	want := "a,b\n\"x,y\",1\n\"quote\"\"d\",2\n"
	if csv != want {
		t.Fatalf("CSV = %q, want %q", csv, want)
	}
}

func TestResultLatencyPercentiles(t *testing.T) {
	res, err := Run(tinySpec(core.PolicyNone, MechFP))
	if err != nil {
		t.Fatal(err)
	}
	if res.P50 <= 0 || res.P95 < res.P50 || res.P99 < res.P95 {
		t.Fatalf("percentiles broken: p50=%v p95=%v p99=%v", res.P50, res.P95, res.P99)
	}
	if res.P50 < 30*sim.Nanosecond {
		t.Fatalf("p50 = %v below DRAM latency", res.P50)
	}
}
