package exp

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"memnet/internal/core"
	"memnet/internal/metrics"
	"memnet/internal/sim"
)

// exportJSONL renders a runner's recorded metrics entries to bytes.
func exportJSONL(t *testing.T, r *Runner) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := metrics.WriteJSONL(&b, r.MetricsEntries()); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestMetricsJobsDeterminism is the export-side determinism guarantee:
// the metrics entries a sweep records — and therefore the exported bytes
// — are identical between -jobs 1 (Run in generator order) and -jobs 8
// (Prefetch commit order), because both follow the collect pass's
// first-use order exactly once per distinct cell.
func TestMetricsJobsDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy generator sweep")
	}
	e, ok := Lookup("fig5")
	if !ok {
		t.Fatal("fig5 not registered")
	}
	seq := tinyRunner()
	seq.Jobs = 1
	seq.Metrics = 10 * sim.Microsecond
	par := tinyRunner()
	par.Jobs = 8
	par.Metrics = 10 * sim.Microsecond
	if out1, out8 := seq.Generate(e), par.Generate(e); out1 != out8 {
		t.Fatalf("figure output differs with metrics armed:\n%s\nvs\n%s", out1, out8)
	}
	b1, b8 := exportJSONL(t, seq), exportJSONL(t, par)
	if len(b1) == 0 {
		t.Fatal("sweep recorded no metrics entries")
	}
	if !bytes.Equal(b1, b8) {
		t.Fatalf("metrics export differs between -jobs 1 (%d bytes) and -jobs 8 (%d bytes)", len(b1), len(b8))
	}
}

// TestMetricsObservational: arming the sampler must not change any
// simulation result — the ticker only reads. Events legitimately grows
// (the ticks themselves are kernel events), so it is excluded.
func TestMetricsObservational(t *testing.T) {
	base, err := Run(tinySpec(core.PolicyAware, MechVWLROO))
	if err != nil {
		t.Fatal(err)
	}
	spec := tinySpec(core.PolicyAware, MechVWLROO)
	spec.MetricsInterval = 10 * sim.Microsecond
	armed, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if base.Metrics != nil {
		t.Error("metrics dump present with MetricsInterval unset")
	}
	if armed.Metrics == nil {
		t.Fatal("metrics dump missing with MetricsInterval set")
	}
	if base.Throughput != armed.Throughput || base.Power != armed.Power ||
		base.P99 != armed.P99 || base.Violations != armed.Violations {
		t.Errorf("sampling perturbed the simulation:\nbase  thr=%v pow=%+v p99=%v viol=%d\narmed thr=%v pow=%+v p99=%v viol=%d",
			base.Throughput, base.Power, base.P99, base.Violations,
			armed.Throughput, armed.Power, armed.P99, armed.Violations)
	}
	// 150us measured at 10us covers ticks at warmup+10us .. warmup+150us.
	if armed.Metrics.Ticks != 15 {
		t.Errorf("ticks = %d, want 15", armed.Metrics.Ticks)
	}
	if armed.Metrics.Start != sim.Time(spec.Warmup) {
		t.Errorf("metrics start = %d, want warmup boundary %d", armed.Metrics.Start, spec.Warmup)
	}
}

// TestMetricsResidencyPartition: per tick, the three link power-state
// residency counters partition time exactly — their sum is (number of
// links) x interval, every tick. This is the cross-component invariant
// that makes the residency series trustworthy for power attribution.
func TestMetricsResidencyPartition(t *testing.T) {
	spec := tinySpec(core.PolicyAware, MechVWLROO)
	spec.MetricsInterval = 10 * sim.Microsecond
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	var resid []metrics.SeriesDump
	for _, s := range res.Metrics.Series {
		if len(s.Name) > 15 && s.Name[:15] == "link.residency." {
			resid = append(resid, s)
		}
	}
	if len(resid) != 3 {
		t.Fatalf("found %d residency series, want 3", len(resid))
	}
	for j := 0; j < res.Metrics.Ticks; j++ {
		sum := 0.0
		for _, s := range resid {
			sum += s.Samples[j]
		}
		if sum <= 0 || int64(sum)%int64(spec.MetricsInterval) != 0 {
			t.Fatalf("tick %d: residency sum %v is not a whole number of link-intervals (%v)",
				j, sum, spec.MetricsInterval)
		}
		if j > 0 {
			prev := 0.0
			for _, s := range resid {
				prev += s.Samples[j-1]
			}
			if sum != prev {
				t.Fatalf("tick %d: residency sum %v != tick %d sum %v (link count is fixed)", j, sum, j-1, prev)
			}
		}
	}
}

// TestMetricsStoreRoundTrip: a Result carrying a metrics dump survives
// the result store's JSON encoding exactly, so restored sweep cells export
// byte-identical metrics.
func TestMetricsStoreRoundTrip(t *testing.T) {
	spec := tinySpec(core.PolicyAware, MechVWLROO)
	spec.SimTime = 30 * sim.Microsecond
	spec.Warmup = 10 * sim.Microsecond
	spec.MetricsInterval = 10 * sim.Microsecond
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(enc, &back); err != nil {
		t.Fatal(err)
	}
	if back.Metrics == nil {
		t.Fatal("metrics dump lost in round trip")
	}
	if !reflect.DeepEqual(res.Metrics, back.Metrics) {
		t.Errorf("metrics dump changed in round trip:\n%+v\nvs\n%+v", res.Metrics, back.Metrics)
	}
}
