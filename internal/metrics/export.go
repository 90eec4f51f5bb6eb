// JSON-lines and CSV exporters. Both walk entries in slice order and
// series in registration order, so the bytes written are a pure function
// of the dumps — the sweep executor collects dumps in sweep order, which
// makes the exported file identical at any -jobs value.
package metrics

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Entry pairs one run's identity (its spec key) with its dump.
type Entry struct {
	Key  string
	Dump *Dump
}

// jsonlLine is one exported line: a single series of a single run.
type jsonlLine struct {
	Key        string `json:"key"`
	Series     string `json:"series"`
	Kind       string `json:"kind"`
	IntervalPS int64  `json:"interval_ps"`
	StartPS    int64  `json:"start_ps"`
	// FirstTick is the 1-based tick index of Samples[0]/Hist[0]. A dump
	// holds every tick of its run, so it is always 1; it stays in the
	// schema so exported files keep their shape.
	FirstTick int        `json:"first_tick"`
	Samples   []float64  `json:"samples,omitempty"`
	Bounds    []float64  `json:"bounds,omitempty"`
	Hist      [][]uint64 `json:"hist,omitempty"`
}

// WriteJSONL emits one JSON object per line per (run, series), in entry
// then registration order. Nil dumps (disabled runs) are skipped.
func WriteJSONL(w io.Writer, entries []Entry) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range entries {
		if e.Dump == nil {
			continue
		}
		for _, s := range e.Dump.Series {
			line := jsonlLine{
				Key:        e.Key,
				Series:     s.Name,
				Kind:       s.Kind,
				IntervalPS: int64(e.Dump.Interval),
				StartPS:    int64(e.Dump.Start),
				FirstTick:  1,
				Samples:    s.Samples,
				Bounds:     s.Bounds,
				Hist:       s.Hist,
			}
			if err := enc.Encode(line); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WriteCSV emits a long-format table: one row per sample for
// counters/gauges, one row per non-zero bucket per sample for
// histograms. time_ps is the end of the sample's interval. Nil dumps
// are skipped.
func WriteCSV(w io.Writer, entries []Entry) error {
	bw := bufio.NewWriter(w)
	if _, err := io.WriteString(bw, "key,series,kind,tick,time_ps,bucket_le,value\n"); err != nil {
		return err
	}
	for _, e := range entries {
		if e.Dump == nil {
			continue
		}
		d := e.Dump
		key := csvQuote(e.Key)
		tickTime := func(j int) int64 {
			return int64(d.Start) + int64(j+1)*int64(d.Interval)
		}
		for _, s := range d.Series {
			for j, v := range s.Samples {
				fmt.Fprintf(bw, "%s,%s,%s,%d,%d,,%s\n",
					key, s.Name, s.Kind, j+1, tickTime(j), formatFloat(v))
			}
			for j, row := range s.Hist {
				for b, c := range row {
					if c == 0 {
						continue
					}
					fmt.Fprintf(bw, "%s,%s,%s,%d,%d,%s,%d\n",
						key, s.Name, s.Kind, j+1, tickTime(j),
						formatFloat(s.Bounds[b]), c)
				}
			}
		}
	}
	return bw.Flush()
}

// formatFloat renders v the way encoding/json does (shortest round-trip
// form), keeping the two exporters' numbers byte-compatible.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// csvQuote wraps a field in quotes when it contains CSV metacharacters
// (spec keys contain none today, but a key is free text to this package).
func csvQuote(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}
