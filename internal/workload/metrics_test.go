package workload

import (
	"testing"

	"memnet/internal/metrics"
	"memnet/internal/sim"
)

// TestFrontEndAttachMetrics cross-checks the sampled series against the
// front end's own counters: per-tick issue deltas must sum to the
// cumulative totals, and the outstanding gauge must match Outstanding().
func TestFrontEndAttachMetrics(t *testing.T) {
	k, _, fe := buildFrontEnd(t, "mixB", 7)
	fe.AttachMetrics(nil) // disabled path registers nothing
	reg := metrics.New(10 * sim.Microsecond)
	fe.AttachMetrics(reg)
	fe.Start()
	reg.Run(k, 50*sim.Microsecond)
	d := reg.Dump()
	if d == nil || d.Ticks != 5 {
		t.Fatalf("dump = %+v, want 5 ticks", d)
	}
	sums := map[string]float64{}
	for _, s := range d.Series {
		for _, v := range s.Samples {
			sums[s.Name] += v
		}
	}
	if got := sums["frontend.completed"]; got != float64(fe.Progress()) {
		t.Errorf("completed deltas sum to %v, Progress() = %d", got, fe.Progress())
	}
	if sums["frontend.issued_reads"] <= 0 || sums["frontend.issued_writes"] <= 0 {
		t.Errorf("no issue activity sampled: %+v", sums)
	}
	last := map[string]float64{}
	for _, s := range d.Series {
		last[s.Name] = s.Samples[len(s.Samples)-1]
	}
	if got := last["frontend.outstanding"]; got != float64(fe.Outstanding()) {
		t.Errorf("outstanding gauge = %v, Outstanding() = %d", got, fe.Outstanding())
	}
}
