package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// boundary is the state recorded at a span boundary, so ratios are taken
// where the work happens.
type boundary struct {
	Processed      uint64 `json:"processed"`
	Pending        int    `json:"pending"`
	QueueLen       int    `json:"queue_len"`
	QueuedRequests int    `json:"queued_requests"`
	Outstanding    int    `json:"outstanding"`
	Epochs         uint64 `json:"epochs"`
}

type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"` // 0 = root
	Name   string    `json:"name"`
	Start  int64     `json:"start_ns"` // since the tracer started
	End    int64     `json:"end_ns"`
	At     *boundary `json:"at,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent int, start, end time.Time, at *boundary) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), At: at})
	return id
}

// open starts a span whose children are recorded before it ends; close
// finishes it.
func (t *tracer) open(name string, parent int) int {
	now := time.Now()
	return t.add(name, parent, now, now, nil)
}

func (t *tracer) close(id int) {
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
}

// spanTotals aggregates spans by name: a span's self time is its
// duration minus the part its children cover.
type spanTotals struct {
	Count  int     `json:"count"`
	WallMS float64 `json:"wall_ms"`
	SelfMS float64 `json:"self_ms"`
}

func (t *tracer) totals() map[string]*spanTotals {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.End - s.Start
	}
	out := map[string]*spanTotals{}
	for _, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanTotals{}
			out[s.Name] = st
		}
		d := s.End - s.Start
		st.Count++
		st.WallMS += float64(d) / 1e6
		st.SelfMS += float64(d-child[s.ID]) / 1e6
	}
	return out
}

// write saves the spans, their per-name totals and the run's per-layer
// metrics as <dir>/trace-<workload>-<seed>.json.
func (t *tracer) write(dir, name string, metrics map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Metrics map[string]float64     `json:"metrics"`
		Totals  map[string]*spanTotals `json:"totals"`
		Spans   []span                 `json:"spans"`
	}{metrics, t.totals(), t.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}
