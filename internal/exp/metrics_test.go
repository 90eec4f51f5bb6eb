package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"memnet/internal/core"
	"memnet/internal/metrics"
	"memnet/internal/sim"
	"memnet/internal/topology"
	"memnet/internal/workload"
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

// TestMetricsObservational: arming the sampler must not change the
// run. It samples between Kernel.Run calls and schedules no event, so
// an armed result equals the unarmed one in every field but Metrics and
// the spec's MetricsInterval, Events included — the whole-model check
// that sampling steps the very run Run measures. The spec arms the
// auditor and the aware manager on a chain busy enough to violate, so
// their events are in the comparison. Each management counter's
// per-tick deltas sum to the result's total, events at the last
// sampling instant included.
func TestMetricsObservational(t *testing.T) {
	mixB, err := workload.ByName("mixB")
	if err != nil {
		t.Fatal(err)
	}
	spec := tinySpec(core.PolicyAware, MechVWLROO)
	spec.Workload, spec.Topology, spec.AuditEvery = mixB, topology.DaisyChain, 64
	base, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
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
	dump := armed.Metrics
	armed.Metrics, armed.Spec.MetricsInterval = nil, 0
	if !reflect.DeepEqual(base, armed) {
		t.Errorf("sampling perturbed the run:\nbase  %+v\narmed %+v", base, armed)
	}
	// 150us measured at 10us covers ticks at warmup+10us .. warmup+150us.
	if dump.Ticks != 15 {
		t.Errorf("ticks = %d, want 15", dump.Ticks)
	}
	if dump.Start != sim.Time(spec.Warmup) {
		t.Errorf("metrics start = %d, want warmup boundary %d", dump.Start, spec.Warmup)
	}
	for _, s := range dump.Series {
		want, ok := map[string]uint64{"core.violations": base.Violations, "core.grants": base.Granted}[s.Name]
		if !ok {
			continue
		}
		sum := 0.0
		for _, v := range s.Samples {
			sum += v
		}
		if sum != float64(want) {
			t.Errorf("%s deltas sum to %v, the result counts %d", s.Name, sum, want)
		}
	}
	if base.Violations == 0 {
		t.Error("no violations: the sums above compare nothing")
	}
}

// TestMetricsTickBound: a sampling interval must give between 1 and
// metrics.MaxTicks samples over the resolved measured interval, so no
// dump or stored result outgrows MaxTicks; anything else is a
// FieldError naming metrics_interval.
func TestMetricsTickBound(t *testing.T) {
	us := sim.Microsecond
	for _, tc := range []struct {
		name              string
		simTime, interval sim.Duration
		ok                bool
	}{
		{"off", 150 * us, 0, true},
		{"one tick", 150 * us, 150 * us, true},
		{"interval over simtime", 150 * us, 151 * us, false},
		{"remainder unsampled", 150 * us, 100 * us, true},
		{"MaxTicks", sim.Duration(metrics.MaxTicks) * us, us, true},
		{"one over MaxTicks", sim.Duration(metrics.MaxTicks+1) * us, us, false},
		{"paper window at 10us", 10 * sim.Millisecond, 10 * us, true},
		{"default simtime", 0, DefaultSimTime, true},
		{"over the default simtime", 0, DefaultSimTime + 1, false},
	} {
		spec := tinySpec(core.PolicyNone, MechFP)
		spec.SimTime, spec.MetricsInterval = tc.simTime, tc.interval
		err := spec.Validate()
		var fe *FieldError
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case !tc.ok && (!errors.As(err, &fe) || fe.Field != "metrics_interval"):
			t.Errorf("%s: err = %v, want a FieldError naming metrics_interval", tc.name, err)
		}
	}
}

// TestTickerEraEntryMisses: an entry stored while a kernel event sampled
// metrics-armed runs was keyed with the "m=" token and counts the
// ticker's events in Result.Events. Such an entry must miss, so the cell
// simulates afresh instead of being served stale.
func TestTickerEraEntryMisses(t *testing.T) {
	spec := tinySpec(core.PolicyAware, MechVWLROO)
	spec.MetricsInterval = 10 * sim.Microsecond
	old := strings.Replace(spec.Key(), "|metrics=", "|m=", 1)
	if old == spec.Key() {
		t.Fatalf("key %s has no metrics= token", old)
	}
	store := openStore(t, t.TempDir(), nil)
	if err := persist(store, old, Result{Events: 1}); err != nil {
		t.Fatal(err)
	}
	runs := countRuns(t)
	res, errs := RunSpecs(context.Background(), []Spec{spec}, 1, store)
	if err := FirstErr([]Spec{spec}, errs); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 || res[0].Events == 1 {
		t.Fatalf("served the ticker-era entry (%d cells simulated, Events %d)", runs.Load(), res[0].Events)
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
