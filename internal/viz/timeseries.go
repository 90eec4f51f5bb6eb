package viz

import (
	"fmt"
	"strings"

	"memnet/internal/metrics"
	"memnet/internal/sim"
)

// sparkWidth caps a time-series sparkline; longer series downsample by
// averaging fixed-size groups so the rendered shape stays faithful.
const sparkWidth = 60

// RenderTimeSeries draws one metrics dump as a labeled sparkline per
// series — the repo's time-series figure. Counter and gauge series show
// min/mean/max/last over the run; histogram series render
// their per-tick total observation count. A nil or empty dump renders a
// one-line placeholder so callers can print unconditionally.
func RenderTimeSeries(d *metrics.Dump) string {
	if d == nil || d.Ticks == 0 {
		return "metrics: no samples (enable with -metrics)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "metrics: %d ticks x %s\n", d.Ticks, sim.Duration(d.Interval))
	nameW := 0
	for _, s := range d.Series {
		if len(s.Name) > nameW {
			nameW = len(s.Name)
		}
	}
	for _, s := range d.Series {
		vals := s.Samples
		suffix := ""
		if s.Kind == "histogram" {
			vals = histTotals(s.Hist)
			suffix = " (observations/tick)"
		}
		lo, hi, mean, last := summarize(vals)
		fmt.Fprintf(&b, "  %-*s %s  min=%.4g mean=%.4g max=%.4g last=%.4g%s\n",
			nameW, s.Name, pad(Sparkline(downsample(vals, sparkWidth)), sparkWidth),
			lo, mean, hi, last, suffix)
	}
	return b.String()
}

// histTotals flattens histogram rows to per-tick observation counts.
func histTotals(rows [][]uint64) []float64 {
	out := make([]float64, len(rows))
	for j, row := range rows {
		var t uint64
		for _, c := range row {
			t += c
		}
		out[j] = float64(t)
	}
	return out
}

// downsample reduces vals to at most width points by averaging equal
// groups (the last group may be shorter).
func downsample(vals []float64, width int) []float64 {
	if len(vals) <= width || width <= 0 {
		return vals
	}
	group := (len(vals) + width - 1) / width
	out := make([]float64, 0, width)
	for i := 0; i < len(vals); i += group {
		end := i + group
		if end > len(vals) {
			end = len(vals)
		}
		sum := 0.0
		for _, v := range vals[i:end] {
			sum += v
		}
		out = append(out, sum/float64(end-i))
	}
	return out
}

func summarize(vals []float64) (lo, hi, mean, last float64) {
	if len(vals) == 0 {
		return 0, 0, 0, 0
	}
	lo, hi = vals[0], vals[0]
	sum := 0.0
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
		sum += v
	}
	return lo, hi, sum / float64(len(vals)), vals[len(vals)-1]
}

// pad right-pads a sparkline to width runes so the stat columns align
// even for short series.
func pad(s string, width int) string {
	if n := len([]rune(s)); n < width {
		return s + strings.Repeat(" ", width-n)
	}
	return s
}
