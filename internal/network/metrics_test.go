package network

import (
	"math"
	"testing"

	"memnet/internal/link"
	"memnet/internal/metrics"
	"memnet/internal/sim"
	"memnet/internal/topology"
)

// TestAttachMetricsSeries drives a small network with the sampler armed
// and checks the registered series against ground truth the test can
// compute independently: residency partitions time across power states,
// completed reads match the injection count, and the latency histogram
// holds every completion.
func TestAttachMetricsSeries(t *testing.T) {
	k, net := buildNet(t, topology.DaisyChain, 2, nil)
	interval := 10 * sim.Microsecond
	reg := metrics.New(interval)
	net.AttachMetrics(reg)

	for i := 0; i < 100; i++ {
		net.InjectRead(uint64(i%2)*net.Cfg.ChunkBytes, 0)
	}
	reg.Run(k, sim.Time(4*interval))
	d := reg.Dump()
	if d == nil || d.Ticks != 4 {
		t.Fatalf("dump = %+v, want 4 ticks", d)
	}

	series := map[string]metrics.SeriesDump{}
	for _, s := range d.Series {
		series[s.Name] = s
	}

	// Residency counters partition each interval exactly across states.
	links := float64(len(net.Links))
	for j := 0; j < d.Ticks; j++ {
		sum := 0.0
		for s := link.StateOn; s <= link.StateWaking; s++ {
			name := "link.residency." + s.String() + "_ps"
			sd, ok := series[name]
			if !ok {
				t.Fatalf("missing series %s", name)
			}
			sum += sd.Samples[j]
		}
		if want := links * float64(interval); sum != want {
			t.Errorf("tick %d: residency sum = %v, want %v", j, sum, want)
		}
	}

	// All 100 reads completed well inside the window, so the cumulative
	// completion counter equals the per-tick deltas summed.
	done := 0.0
	for _, v := range series["network.reads_completed"].Samples {
		done += v
	}
	if done != 100 {
		t.Errorf("reads_completed total = %v, want 100", done)
	}

	// The latency histogram saw exactly one observation per read, and the
	// per-tick rows carry the log2 bounds.
	hist := series["network.read_latency_hist"]
	if len(hist.Bounds) != len(hist.Hist[0]) {
		t.Fatalf("bounds/row mismatch: %d vs %d", len(hist.Bounds), len(hist.Hist[0]))
	}
	var observed uint64
	for _, row := range hist.Hist {
		for _, c := range row {
			observed += c
		}
	}
	if observed != 100 {
		t.Errorf("histogram observations = %d, want 100", observed)
	}

	// Queues drained, so the final gauges read zero.
	for _, name := range []string{"network.in_flight", "link.buffer_occupancy",
		"dram.vault_queue_depth", "dram.outstanding_reads"} {
		s := series[name].Samples
		if last := s[len(s)-1]; last != 0 {
			t.Errorf("%s final sample = %v, want 0 (network idle)", name, last)
		}
	}
}

// TestAttachMetricsNilRegistry: the disabled path registers nothing and
// must leave the simulation event stream untouched.
func TestAttachMetricsNilRegistry(t *testing.T) {
	k1, net1 := buildNet(t, topology.Star, 4, nil)
	net1.AttachMetrics(nil)
	net1.InjectRead(0, 0)
	k1.RunAll()
	k2, net2 := buildNet(t, topology.Star, 4, nil)
	net2.InjectRead(0, 0)
	k2.RunAll()
	if k1.Processed() != k2.Processed() {
		t.Errorf("nil registry changed event count: %d vs %d", k1.Processed(), k2.Processed())
	}
}

// TestLatencyBounds: the exported bucket edges must mirror the log2
// histogram layout — inclusive upper edge 2^i - 1 — and be monotone.
func TestLatencyBounds(t *testing.T) {
	b := latencyBounds()
	if b[0] != 0 || b[1] != 1 || b[10] != 1023 {
		t.Errorf("bounds start %v %v ... [10]=%v, want 0 1 ... 1023", b[0], b[1], b[10])
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] || math.IsInf(b[i], 0) {
			t.Fatalf("bounds not strictly increasing at %d: %v, %v", i, b[i-1], b[i])
		}
	}
}
