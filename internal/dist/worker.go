package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"time"

	"memnet/internal/exp"
)

// Worker defaults. RPC bounds are deliberately tight relative to the
// lease TTL: a worker that cannot reach the coordinator for ~30 s of
// backed-off retries has almost certainly lost its leases anyway, and
// exiting non-zero beats wedging.
const (
	DefaultRequestTimeout = 10 * time.Second
	DefaultRetries        = 6
	DefaultBackoff        = 100 * time.Millisecond
	maxBackoff            = 5 * time.Second
	// fallbackPoll is the wait-state re-poll delay when the coordinator
	// does not hint one.
	fallbackPoll = 500 * time.Millisecond
)

// WorkerConfig parameterizes one claim-run-report loop.
type WorkerConfig struct {
	// Coordinator is the base URL, e.g. "http://127.0.0.1:9731".
	Coordinator string
	// Name identifies this worker in leases and logs
	// (default "worker-<pid>").
	Name string
	// Client issues the RPCs (default: a client bound by RequestTimeout).
	Client *http.Client
	// RequestTimeout bounds each RPC attempt (0 = DefaultRequestTimeout).
	RequestTimeout time.Duration
	// Retries bounds re-attempts per RPC beyond the first try
	// (0 = DefaultRetries; transport errors and 5xx retry with jittered
	// exponential backoff, protocol rejections never do).
	Retries int
	// Backoff is the first retry delay (0 = DefaultBackoff); it doubles
	// per attempt, capped at 5 s, with ±50% jitter so a worker herd that
	// lost its coordinator does not reconnect in lockstep.
	Backoff time.Duration
	// Fallback, when non-nil, receives any completed result the worker
	// could not deliver before exiting — the local salvage journal. It
	// may be shared by several workers (Journal.Append locks).
	Fallback *exp.Journal
	// Run executes one cell (default exp.RunCtx; tests substitute
	// instrumented runners). The context is the worker's own: when the
	// worker is killed mid-cell the simulation aborts within one kernel
	// check interval instead of burning CPU on a lease nobody holds.
	Run func(context.Context, exp.Spec) (exp.Result, error)
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// WorkerStats summarizes one RunWorker call.
type WorkerStats struct {
	// CellsRun counts cells executed; CellsDelivered counts results the
	// coordinator acknowledged (duplicates included).
	CellsRun       int
	CellsDelivered int
	// Salvaged counts undeliverable results appended to the fallback
	// journal; RPCRetries counts individual re-attempts.
	Salvaged   int
	RPCRetries int
}

// RunWorker claims, executes and reports cells until the coordinator
// declares the sweep done (nil error), ctx is canceled (ctx.Err()), or
// the coordinator becomes unreachable — in which case the worker drains:
// it stops claiming, salvages its undelivered result to the fallback
// journal, and returns the delivery error so the process exits non-zero
// instead of wedging.
func RunWorker(ctx context.Context, cfg WorkerConfig) (WorkerStats, error) {
	w, err := newWorker(cfg)
	if err != nil {
		return WorkerStats{}, err
	}
	for {
		if err := ctx.Err(); err != nil {
			return w.stats, err
		}
		var claim ClaimResponse
		if err := w.post(ctx, PathClaim, ClaimRequest{Worker: w.name}, &claim); err != nil {
			return w.stats, fmt.Errorf("dist: claim from %s: %w", w.base, err)
		}
		switch claim.Status {
		case StatusDone:
			w.logf("dist: %s: sweep done, exiting", w.name)
			return w.stats, nil
		case StatusWait:
			poll := time.Duration(claim.PollMS) * time.Millisecond
			if poll <= 0 {
				poll = fallbackPoll
			}
			if !sleepCtx(ctx, poll) {
				return w.stats, ctx.Err()
			}
		case StatusCell:
			if err := w.runCell(ctx, claim); err != nil {
				return w.stats, err
			}
		default:
			return w.stats, fmt.Errorf("dist: coordinator answered unknown claim status %q", claim.Status)
		}
	}
}

// worker is the resolved config plus running stats.
type worker struct {
	base    string
	name    string
	client  *http.Client
	timeout time.Duration
	retries int
	backoff time.Duration
	fb      *exp.Journal
	run     func(context.Context, exp.Spec) (exp.Result, error)
	logf    func(string, ...any)
	rng     *rand.Rand
	stats   WorkerStats
}

func newWorker(cfg WorkerConfig) (*worker, error) {
	if cfg.Coordinator == "" {
		return nil, fmt.Errorf("dist: worker needs a coordinator URL")
	}
	w := &worker{
		base:    cfg.Coordinator,
		name:    cfg.Name,
		client:  cfg.Client,
		timeout: cfg.RequestTimeout,
		retries: cfg.Retries,
		backoff: cfg.Backoff,
		fb:      cfg.Fallback,
		run:     cfg.Run,
		logf:    cfg.Logf,
		rng:     rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	if w.name == "" {
		w.name = fmt.Sprintf("worker-%d", os.Getpid())
	}
	if w.timeout <= 0 {
		w.timeout = DefaultRequestTimeout
	}
	if w.client == nil {
		w.client = &http.Client{Timeout: w.timeout}
	}
	if w.retries <= 0 {
		w.retries = DefaultRetries
	}
	if w.backoff <= 0 {
		w.backoff = DefaultBackoff
	}
	if w.run == nil {
		w.run = exp.RunCtx
	}
	if w.logf == nil {
		w.logf = func(string, ...any) {}
	}
	return w, nil
}

// runCell executes one leased cell end to end: heartbeats renew the
// lease while the simulation runs, the result (or terminal cell error)
// is delivered with bounded retry, and an undeliverable result is
// salvaged to the fallback journal before the error propagates.
func (w *worker) runCell(ctx context.Context, claim ClaimResponse) error {
	var spec exp.Spec
	if err := json.Unmarshal(claim.Spec, &spec); err != nil {
		// A spec this worker cannot decode will fail on every retry of the
		// lease; report it as a terminal cell error so the sweep moves on.
		w.logf("dist: %s: cell %s spec does not decode: %v", w.name, claim.Key, err)
		return w.deliver(ctx, claim, exp.Result{}, fmt.Errorf("spec does not decode: %v", err))
	}
	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	go w.heartbeatLoop(hbCtx, claim)
	w.logf("dist: %s: running cell %d (%s)", w.name, claim.ID, claim.Key)
	res, runErr := w.run(ctx, spec)
	stopHB()
	w.stats.CellsRun++
	if err := ctx.Err(); err != nil {
		// Killed mid-cell: die silently, as a real SIGKILL would — the
		// lease expires and the cell is reassigned.
		return err
	}
	return w.deliver(ctx, claim, res, runErr)
}

// deliver posts a completion, salvaging to the fallback journal when the
// coordinator is unreachable.
func (w *worker) deliver(ctx context.Context, claim ClaimResponse, res exp.Result, runErr error) error {
	req := ResultRequest{Worker: w.name, ID: claim.ID, Key: claim.Key}
	if runErr != nil {
		req.Error = runErr.Error()
	} else {
		raw, err := json.Marshal(res)
		if err != nil {
			req.Error = fmt.Sprintf("result not wire-encodable: %v", err)
		} else {
			req.Result = raw
		}
	}
	var ack ResultResponse
	if err := w.post(ctx, PathResult, req, &ack); err != nil {
		if runErr == nil && w.fb != nil {
			if jerr := w.fb.Append(res); jerr != nil {
				w.logf("dist: %s: salvage of %s failed: %v", w.name, claim.Key, jerr)
			} else {
				w.stats.Salvaged++
				w.logf("dist: %s: salvaged undelivered %s to local journal", w.name, claim.Key)
			}
		}
		return fmt.Errorf("dist: deliver %s: %w", claim.Key, err)
	}
	if !ack.Accepted {
		// Terminal protocol rejection (unknown cell, torn payload the
		// coordinator bounced). The cell's lease will expire and the cell
		// will be re-run; this worker moves on.
		w.logf("dist: %s: result for %s rejected: %s", w.name, claim.Key, ack.Reason)
		return nil
	}
	w.stats.CellsDelivered++
	if ack.Duplicate {
		w.logf("dist: %s: result for %s was a duplicate", w.name, claim.Key)
	}
	return nil
}

// heartbeatLoop renews the lease at a third of its TTL until the cell
// finishes or ctx dies. Each beat is a single attempt — the next tick is
// the retry — and a lost lease is only logged: the result delivery is
// authoritative and duplicates are idempotent.
func (w *worker) heartbeatLoop(ctx context.Context, claim ClaimResponse) {
	ttl := time.Duration(claim.LeaseMS) * time.Millisecond
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	t := time.NewTicker(ttl / 3)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		var hb HeartbeatResponse
		err := w.postOnce(ctx, PathHeartbeat, HeartbeatRequest{Worker: w.name, ID: claim.ID, Key: claim.Key}, &hb)
		if err == nil && !hb.OK {
			w.logf("dist: %s: lease on %s lost; finishing anyway", w.name, claim.Key)
		}
	}
}

// post issues one RPC with bounded retry and jittered exponential
// backoff. Transport failures and 5xx retry; 4xx protocol rejections are
// terminal immediately.
func (w *worker) post(ctx context.Context, path string, req, resp any) error {
	var lastErr error
	for attempt := 0; attempt <= w.retries; attempt++ {
		if attempt > 0 {
			w.stats.RPCRetries++
			if !sleepCtx(ctx, w.jitteredBackoff(attempt)) {
				return ctx.Err()
			}
		}
		lastErr = w.postOnce(ctx, path, req, resp)
		if lastErr == nil {
			return nil
		}
		var term *terminalError
		if errors.As(lastErr, &term) {
			return lastErr
		}
		w.logf("dist: %s: %s attempt %d failed: %v", w.name, path, attempt+1, lastErr)
	}
	return fmt.Errorf("after %d attempts: %w", w.retries+1, lastErr)
}

// terminalError marks a coordinator verdict that retrying cannot change.
type terminalError struct{ msg string }

func (e *terminalError) Error() string { return e.msg }

// postOnce issues a single RPC attempt.
func (w *worker) postOnce(ctx context.Context, path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return &terminalError{msg: fmt.Sprintf("encode %s request: %v", path, err)}
	}
	rctx, cancel := context.WithTimeout(ctx, w.timeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(rctx, http.MethodPost, w.base+path, bytes.NewReader(body))
	if err != nil {
		return &terminalError{msg: fmt.Sprintf("build %s request: %v", path, err)}
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := w.client.Do(hreq)
	if err != nil {
		return err
	}
	defer hresp.Body.Close()
	if hresp.StatusCode >= 400 && hresp.StatusCode < 500 {
		msg, _ := io.ReadAll(io.LimitReader(hresp.Body, 512))
		return &terminalError{msg: fmt.Sprintf("%s rejected: %s: %s", path, hresp.Status, bytes.TrimSpace(msg))}
	}
	if hresp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", path, hresp.Status)
	}
	if err := json.NewDecoder(hresp.Body).Decode(resp); err != nil {
		return fmt.Errorf("%s: decoding response: %w", path, err)
	}
	return nil
}

// jitteredBackoff is base·2^(attempt-1) capped at maxBackoff, ±50%.
func (w *worker) jitteredBackoff(attempt int) time.Duration {
	d := w.backoff << (attempt - 1)
	if d > maxBackoff || d <= 0 {
		d = maxBackoff
	}
	half := d / 2
	return half + time.Duration(w.rng.Int63n(int64(d)))
}

// sleepCtx waits d or until ctx dies; false means ctx died.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}
