// Edge-case tables for the reporting primitives: percentile behavior at
// the boundaries of the log₂ histogram. These lock down behavior the
// figure pipeline depends on but the happy-path tests never exercise.
package stats

import (
	"testing"

	"memnet/internal/sim"
)

func TestLatencyHistPercentileEdges(t *testing.T) {
	cases := []struct {
		name    string
		samples []sim.Duration
		p       float64
		want    func(got sim.Duration) bool
		desc    string
	}{
		{"empty p50", nil, 0.5,
			func(g sim.Duration) bool { return g == 0 }, "empty histogram reports 0"},
		{"empty p0", nil, 0,
			func(g sim.Duration) bool { return g == 0 }, "empty histogram reports 0"},
		{"single sample p0", []sim.Duration{100}, 0,
			func(g sim.Duration) bool { return g >= 64 && g <= 100 }, "within the sample's bucket, clamped to max"},
		{"single sample p100", []sim.Duration{100}, 1,
			func(g sim.Duration) bool { return g >= 64 && g <= 100 }, "p=1 stays within the sample's bucket (approximate histogram)"},
		{"all ties p50", []sim.Duration{70, 70, 70, 70, 70}, 0.5,
			func(g sim.Duration) bool { return g >= 64 && g <= 70 }, "ties stay inside one bucket"},
		{"all ties p99", []sim.Duration{70, 70, 70, 70, 70}, 0.99,
			func(g sim.Duration) bool { return g >= 64 && g <= 70 }, "ties stay inside one bucket"},
		{"zero samples only", []sim.Duration{0, 0, 0}, 0.5,
			func(g sim.Duration) bool { return g == 0 }, "bit length 0 bucket reports 0"},
		{"p below 0 clamps", []sim.Duration{10, 20}, -3,
			func(g sim.Duration) bool { return g >= 0 && g <= 20 }, "negative p behaves like p=0"},
		{"p above 1 clamps", []sim.Duration{10, 20}, 7,
			func(g sim.Duration) bool { return g >= 16 && g <= 20 }, "p>1 behaves like p=1: inside the top sample's bucket"},
		{"bimodal p50 in low mode", []sim.Duration{1, 1, 1, 1 << 40}, 0.5,
			func(g sim.Duration) bool { return g <= 1 }, "median must not be pulled into the outlier bucket"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var h LatencyHist
			for _, s := range tc.samples {
				h.Add(s)
			}
			if got := h.Percentile(tc.p); !tc.want(got) {
				t.Errorf("Percentile(%v) = %v; want %s", tc.p, got, tc.desc)
			}
		})
	}
}

// TestLatencyHistPercentileMonotone: for any sample set, the percentile
// function must be non-decreasing in p and bounded by [0, Max].
func TestLatencyHistPercentileMonotone(t *testing.T) {
	var h LatencyHist
	for _, s := range []sim.Duration{3, 3, 17, 90, 90, 90, 1500, 40000, 40000, 1 << 30} {
		h.Add(s)
	}
	prev := sim.Duration(-1)
	for p := 0.0; p <= 1.0; p += 0.01 {
		got := h.Percentile(p)
		if got < prev {
			t.Fatalf("Percentile(%0.2f) = %v < Percentile(%0.2f) = %v", p, got, p-0.01, prev)
		}
		if got < 0 || got > h.Max() {
			t.Fatalf("Percentile(%0.2f) = %v outside [0, %v]", p, got, h.Max())
		}
		prev = got
	}
}

func TestCopyBuckets(t *testing.T) {
	var h LatencyHist
	h.Add(0)    // bit length 0
	h.Add(1)    // bit length 1
	h.Add(1)    // bit length 1
	h.Add(1000) // bit length 10
	dst := make([]uint64, NumBuckets)
	h.CopyBuckets(dst)
	if dst[0] != 1 || dst[1] != 2 || dst[10] != 1 {
		t.Errorf("buckets = [0]=%d [1]=%d [10]=%d, want 1, 2, 1", dst[0], dst[1], dst[10])
	}
	// A short destination takes a prefix without panicking.
	short := make([]uint64, 2)
	h.CopyBuckets(short)
	if short[0] != 1 || short[1] != 2 {
		t.Errorf("short copy = %v, want [1 2]", short)
	}
}
