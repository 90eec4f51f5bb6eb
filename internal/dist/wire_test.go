package dist

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"memnet/internal/exp"
)

// TestValidateMessages pins the protocol-violation verdicts for every
// request type.
func TestValidateMessages(t *testing.T) {
	cases := []struct {
		name string
		err  bool
		v    interface{ Validate() error }
	}{
		{"claim ok", false, ClaimRequest{Worker: "w"}},
		{"claim anonymous", true, ClaimRequest{}},
		{"heartbeat ok", false, HeartbeatRequest{Worker: "w", ID: 0, Key: "k"}},
		{"heartbeat anonymous", true, HeartbeatRequest{ID: 0, Key: "k"}},
		{"heartbeat negative id", true, HeartbeatRequest{Worker: "w", ID: -1, Key: "k"}},
		{"heartbeat keyless", true, HeartbeatRequest{Worker: "w", ID: 0}},
		{"result ok", false, ResultRequest{Worker: "w", ID: 0, Key: "k", Result: json.RawMessage(`{}`)}},
		{"result error ok", false, ResultRequest{Worker: "w", ID: 0, Key: "k", Error: "boom"}},
		{"result anonymous", true, ResultRequest{ID: 0, Key: "k", Error: "boom"}},
		{"result negative id", true, ResultRequest{Worker: "w", ID: -1, Key: "k", Error: "boom"}},
		{"result keyless", true, ResultRequest{Worker: "w", ID: 0, Error: "boom"}},
		{"result empty", true, ResultRequest{Worker: "w", ID: 0, Key: "k"}},
		{"result both", true, ResultRequest{Worker: "w", ID: 0, Key: "k", Result: json.RawMessage(`{}`), Error: "x"}},
	}
	for _, tc := range cases {
		if got := tc.v.Validate(); (got != nil) != tc.err {
			t.Errorf("%s: Validate() = %v, want error=%v", tc.name, got, tc.err)
		}
	}
}

// TestErrorStrings: the error types name their actors.
func TestErrorStrings(t *testing.T) {
	rce := &RemoteCellError{Worker: "w7", Msg: "audit violation"}
	if s := rce.Error(); !strings.Contains(s, "w7") || !strings.Contains(s, "audit violation") {
		t.Errorf("RemoteCellError message dropped context: %q", s)
	}
	te := &terminalError{msg: "rejected"}
	if te.Error() != "rejected" {
		t.Errorf("terminalError message = %q", te.Error())
	}
}

// TestDrainWorkers: an orderly worker (told done) drains immediately; a
// worker that was seen but never dismissed holds the drain open until
// the timeout.
func TestDrainWorkers(t *testing.T) {
	c := NewCoordinator(Config{LeaseTTL: time.Minute})
	c.Submit(testSpecs(t, 1))
	cl := c.claim("orderly")
	c.Close()
	if ok := c.DrainWorkers(50 * time.Millisecond); ok {
		t.Fatal("drained while a worker was still known and undismissed")
	}
	if ack := c.result(ResultRequest{Worker: "orderly", ID: cl.ID, Key: cl.Key, Result: fakeResult(t, testSpecs(t, 1)[0])}); !ack.Accepted {
		t.Fatalf("result: %+v", ack)
	}
	if got := c.claim("orderly").Status; got != StatusDone {
		t.Fatalf("claim after completion: %q", got)
	}
	if ok := c.DrainWorkers(time.Second); !ok {
		t.Fatal("orderly worker was dismissed but drain still timed out")
	}
}

// TestWaitCanceled: Wait honors its context even when cells never
// finish.
func TestWaitCanceled(t *testing.T) {
	c := NewCoordinator(Config{LeaseTTL: time.Minute})
	b := c.Submit(testSpecs(t, 1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := b.Wait(ctx); err == nil {
		t.Fatal("Wait returned nil on a canceled context")
	}
}

// TestWorkerHeartbeatsUnderShortLease: a cell that outlives its lease
// TTL several times over survives because the worker's heartbeat loop
// keeps renewing — no expiry, no duplicate execution.
func TestWorkerHeartbeatsUnderShortLease(t *testing.T) {
	specs := testSpecs(t, 1)
	c := NewCoordinator(Config{LeaseTTL: 500 * time.Millisecond, Logf: t.Logf})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	b := c.Submit(specs)
	c.Close()

	res0, err := exp.Run(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	stats, werr := RunWorker(ctx, WorkerConfig{
		Coordinator: srv.URL,
		Name:        "slow",
		Run: func(_ context.Context, s exp.Spec) (exp.Result, error) {
			time.Sleep(1200 * time.Millisecond) // several heartbeat intervals past the TTL
			return res0, nil
		},
		Logf: t.Logf,
	})
	if werr != nil {
		t.Fatalf("worker: %v", werr)
	}
	if stats.CellsRun != 1 || stats.CellsDelivered != 1 {
		t.Fatalf("stats: %+v", stats)
	}
	if _, errs, err := b.Wait(ctx); err != nil || errs[0] != nil {
		t.Fatalf("wait: %v %v", err, errs)
	}
	if st := c.Stats(); st.LeasesExpired != 0 {
		t.Fatalf("lease expired despite heartbeats: %+v", st)
	}
}

// TestWorkerTerminalRejection: a coordinator that answers 400 is a
// protocol verdict — the worker does not retry the request.
func TestWorkerTerminalRejection(t *testing.T) {
	var calls int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		http.Error(w, "dist: claim needs a worker name", http.StatusBadRequest)
	}))
	defer srv.Close()
	_, err := RunWorker(context.Background(), WorkerConfig{
		Coordinator: srv.URL,
		Name:        "w",
		Retries:     5,
		Backoff:     time.Millisecond,
		Logf:        t.Logf,
	})
	if err == nil {
		t.Fatal("worker accepted a 400 verdict")
	}
	if calls != 1 {
		t.Fatalf("worker retried a terminal rejection: %d calls", calls)
	}
	var term *terminalError
	if !errors.As(err, &term) {
		t.Fatalf("error is not terminal: %v", err)
	}
}
