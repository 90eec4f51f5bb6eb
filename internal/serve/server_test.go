package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"memnet/internal/durable"
)

// newTestServer builds a server + HTTP front end with test-friendly
// defaults; mutate cfg via mod before it starts.
func newTestServer(t *testing.T, mod func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	store, err := durable.NewStore(t.TempDir() + "/store")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Store:      store,
		QueueDepth: 4,
		Runners:    2,
		Logf:       t.Logf,
	}
	if mod != nil {
		mod(&cfg)
	}
	s := New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
		hs.Close()
	})
	return s, hs
}

// tinyBody is a one-cell submission cheap enough for unit tests.
func tinyBody(simtime string, salt int) string {
	// SeedSalt is not in SpecJSON; vary alpha-free fields via wakeup_ns
	// to get distinct cache keys when needed.
	return fmt.Sprintf(`{"runs":[{"workload":"mixG","simtime":%q,"warmup":"5us","wakeup_ns":%d}]}`,
		simtime, 14+salt)
}

func submit(t *testing.T, base, body string) SubmitResponse {
	t.Helper()
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: %s: %s", resp.Status, msg)
	}
	var sr SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return sr
}

// waitTerminal polls the job until it leaves the running states.
func waitTerminal(t *testing.T, base, id string, timeout time.Duration) Status {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(base + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		switch st.State {
		case StateDone, StateFailed, StateCanceled:
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, st.State, timeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func fetchResult(t *testing.T, base, id string) []json.RawMessage {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %s", resp.Status)
	}
	var out struct {
		Status  Status            `json:"status"`
		Results []json.RawMessage `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Results
}

// TestSubmitRunCacheHit is the content-addressed-store acceptance test:
// the same spec submitted twice simulates once, and the cached delivery
// is byte-identical to the fresh one.
func TestSubmitRunCacheHit(t *testing.T) {
	s, hs := newTestServer(t, nil)
	sr1 := submit(t, hs.URL, tinyBody("20us", 0))
	st1 := waitTerminal(t, hs.URL, sr1.ID, 60*time.Second)
	if st1.State != StateDone || st1.CacheHits != 0 {
		t.Fatalf("first run: %+v", st1)
	}
	fresh := fetchResult(t, hs.URL, sr1.ID)

	sr2 := submit(t, hs.URL, tinyBody("20us", 0))
	st2 := waitTerminal(t, hs.URL, sr2.ID, 10*time.Second)
	if st2.State != StateDone || st2.CacheHits != 1 {
		t.Fatalf("second run should be a cache hit: %+v", st2)
	}
	cached := fetchResult(t, hs.URL, sr2.ID)
	if len(fresh) != 1 || len(cached) != 1 {
		t.Fatalf("results = %d/%d cells, want 1/1", len(fresh), len(cached))
	}
	if !bytes.Equal(fresh[0], cached[0]) {
		t.Fatal("cached result is not byte-identical to the fresh run")
	}
	if stats := s.Stats(); stats.CellsRun != 1 || stats.CacheHits != 1 {
		t.Fatalf("stats: %+v", stats)
	}
}

// TestSubmitDefaultSpellingIsCacheHit: "wakeup_ns":0 means the 14 ns
// default, so a run spelled either way is one run with one key — the
// second submission is served from the store without simulating.
func TestSubmitDefaultSpellingIsCacheHit(t *testing.T) {
	s, hs := newTestServer(t, nil)
	sr1 := submit(t, hs.URL, tinyBody("20us", -14)) // "wakeup_ns":0
	if st := waitTerminal(t, hs.URL, sr1.ID, 60*time.Second); st.State != StateDone {
		t.Fatalf("wakeup 0 run: %+v", st)
	}
	sr2 := submit(t, hs.URL, tinyBody("20us", 0)) // "wakeup_ns":14
	if st := waitTerminal(t, hs.URL, sr2.ID, 10*time.Second); st.State != StateDone || st.CacheHits != 1 {
		t.Fatalf("wakeup 14 run should be a cache hit: %+v", st)
	}
	if sr1.Keys[0] != sr2.Keys[0] {
		t.Errorf("one run, two keys:\n%s\n%s", sr1.Keys[0], sr2.Keys[0])
	}
	if stats := s.Stats(); stats.CellsRun != 1 {
		t.Fatalf("cells_run = %d, want 1: %+v", stats.CellsRun, stats)
	}
}

// TestSubmitValidation pins the 400 paths: malformed JSON, unknown
// fields, empty batches, bad specs, out-of-range fields — all rejected
// before admission.
func TestSubmitValidation(t *testing.T) {
	_, hs := newTestServer(t, nil)
	for name, body := range map[string]string{
		"malformed":     `{"runs": [`,
		"unknown-field": `{"runs":[],"bogus":1}`,
		"no-runs":       `{"runs":[]}`,
		"bad-workload":  `{"runs":[{"workload":"no-such-workload"}]}`,
		"bad-interval":  `{"runs":[{"workload":"mixG"}],"metrics_interval":"not-a-duration"}`,
		// Range-check failures: each of these was admitted and then ran
		// the defaults (or sampled nothing) before the one range check.
		"neg-simtime":  `{"runs":[{"workload":"mixG","simtime":"-1us"}]}`,
		"neg-warmup":   `{"runs":[{"workload":"mixG","warmup":"-3us"}]}`,
		"neg-wakeup":   `{"runs":[{"workload":"mixG","wakeup_ns":-5}]}`,
		"neg-interval": `{"runs":[{"workload":"mixG"}],"metrics_interval":"-5us"}`,
	} {
		resp, err := http.Post(hs.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	resp, err := http.Get(hs.URL + "/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

// TestBackpressure429 fills the queue behind a slow job and pins the
// 429 + Retry-After overload contract.
func TestBackpressure429(t *testing.T) {
	s, hs := newTestServer(t, func(c *Config) {
		c.Runners = 1
		c.QueueDepth = 1
	})
	// One slow job occupies the single runner; one more fills the queue.
	slow := submit(t, hs.URL, tinyBody("5ms", 0))
	submit(t, hs.URL, tinyBody("20us", 1))
	var got429 bool
	for i := 0; i < 10; i++ {
		resp, err := http.Post(hs.URL+"/jobs", "application/json",
			strings.NewReader(tinyBody("20us", 2+i)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
			got429 = true
			break
		}
	}
	if !got429 {
		t.Fatal("queue never pushed back with 429")
	}
	if s.Stats().Rejected == 0 {
		t.Fatal("rejection not counted")
	}
	// Unblock the cleanup drain promptly.
	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/jobs/"+slow.ID, nil)
	http.DefaultClient.Do(req)
}

// TestCancelStopsJob pins DELETE /jobs/{id}: a long job goes terminal
// promptly — the kernel check aborts within one interval, far sooner
// than the simulation would finish.
func TestCancelStopsJob(t *testing.T) {
	_, hs := newTestServer(t, nil)
	sr := submit(t, hs.URL, tinyBody("500ms", 0)) // would run for minutes
	time.Sleep(100 * time.Millisecond)            // let it enter the kernel
	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/jobs/"+sr.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	start := time.Now()
	st := waitTerminal(t, hs.URL, sr.ID, 10*time.Second)
	if st.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", st.State)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancellation took %v; kernel check did not abort promptly", d)
	}
}

// TestStreamDisconnectCancels pins the end-to-end cancellation path: a
// streaming submit whose client disconnects mid-run must cancel the
// simulation.
func TestStreamDisconnectCancels(t *testing.T) {
	s, hs := newTestServer(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, hs.URL+"/jobs?stream=1",
		strings.NewReader(tinyBody("500ms", 0)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read the first event, then drop the connection mid-stream.
	buf := make([]byte, 1)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatal(err)
	}
	cancel()
	resp.Body.Close()

	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Canceled == 0 {
		if time.Now().After(deadline) {
			t.Fatal("disconnected stream job never canceled")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestStreamReplayAndMetrics runs a metrics-armed job to completion,
// then subscribes late: the replay must contain the full event history —
// status, result, the epoch-metrics dump, and done.
func TestStreamReplayAndMetrics(t *testing.T) {
	_, hs := newTestServer(t, nil)
	body := `{"runs":[{"workload":"mixG","simtime":"50us","warmup":"5us"}],"metrics_interval":"10us"}`
	sr := submit(t, hs.URL, body)
	waitTerminal(t, hs.URL, sr.ID, 60*time.Second)

	resp, err := http.Get(hs.URL + "/jobs/" + sr.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	data, err := io.ReadAll(resp.Body) // terminal job: replay then EOF
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{"event: status", "event: result", "event: metrics", "event: done"} {
		if !strings.Contains(text, want) {
			t.Errorf("replay missing %q:\n%s", want, text)
		}
	}
	if !strings.Contains(text, `"samples"`) && !strings.Contains(text, `"series"`) {
		t.Errorf("metrics event carries no time-series dump:\n%s", text)
	}
}

// TestEventBudgetFailsJob pins the per-job event budget: a budget far
// below the cell's event count fails the job with a budget error.
func TestEventBudgetFailsJob(t *testing.T) {
	_, hs := newTestServer(t, nil)
	body := `{"runs":[{"workload":"mixG","simtime":"20us","warmup":"5us"}],"event_budget":1000}`
	sr := submit(t, hs.URL, body)
	st := waitTerminal(t, hs.URL, sr.ID, 30*time.Second)
	if st.State != StateFailed {
		t.Fatalf("state = %s, want failed", st.State)
	}
	if len(st.CellErrs) == 0 || !strings.Contains(st.CellErrs[0], "budget") {
		t.Fatalf("cell errors carry no budget diagnosis: %+v", st.CellErrs)
	}
}

// TestReadyzDrainTransitions pins the health surface: ready before
// drain, 503 during and after, submissions refused while draining.
func TestReadyzDrainTransitions(t *testing.T) {
	s, hs := newTestServer(t, nil)
	get := func(path string) int {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if c := get("/healthz"); c != http.StatusOK {
		t.Fatalf("healthz = %d", c)
	}
	if c := get("/readyz"); c != http.StatusOK {
		t.Fatalf("readyz before drain = %d", c)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if c := get("/readyz"); c != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain = %d, want 503", c)
	}
	if c := get("/healthz"); c != http.StatusOK {
		t.Fatalf("healthz after drain = %d (liveness must survive drain)", c)
	}
	resp, err := http.Post(hs.URL+"/jobs", "application/json", strings.NewReader(tinyBody("20us", 0)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", resp.StatusCode)
	}
}

// TestMetricsz pins the daemon counters on /statusz, their one
// endpoint, by their JSON field names.
func TestMetricsz(t *testing.T) {
	_, hs := newTestServer(t, nil)
	sr := submit(t, hs.URL, tinyBody("20us", 0))
	waitTerminal(t, hs.URL, sr.ID, 60*time.Second)
	resp, err := http.Get(hs.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fields map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&fields); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{"submitted": 1, "cells_run": 1, "queue_len": 0} {
		if got, ok := fields[name].(float64); !ok || got != want {
			t.Errorf("statusz %s = %v, want %v", name, fields[name], want)
		}
	}
}
