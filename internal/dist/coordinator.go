package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"memnet/internal/exp"
	"memnet/internal/metrics"
)

// Defaults. The lease TTL is generous against real-world scheduling
// hiccups (a worker must merely heartbeat, not finish, inside it); tests
// shrink it to force expiry quickly.
const (
	DefaultLeaseTTL = 10 * time.Second
)

// Config parameterizes a Coordinator.
type Config struct {
	// LeaseTTL is how long a claim stays valid without a heartbeat
	// (0 = DefaultLeaseTTL). A lease whose expiry instant has been
	// reached is already expired: a heartbeat arriving exactly at the
	// TTL is rejected and the cell returns to the queue.
	LeaseTTL time.Duration
	// Poll is the re-poll hint handed to workers when no cell is
	// available (0 = LeaseTTL/4).
	Poll time.Duration
	// Journal, when non-nil, receives every fresh successful cell in
	// sweep order behind the completion watermark (exp.Frontier); Loaded
	// seeds the coordinator with results restored from a previous run
	// (consumed by key on Submit, exactly like exp.RunSpecs).
	Journal *exp.Journal
	Loaded  map[string]exp.Result
	// Logf, when non-nil, receives progress lines (lease grants,
	// expiries, completions).
	Logf func(format string, args ...any)
	// Clock overrides time.Now for lease arithmetic (tests).
	Clock func() time.Time
}

// cellState is the lease state machine: pending -> claimed -> done, with
// claimed -> pending on lease expiry. done is terminal and idempotent.
type cellState uint8

const (
	cellPending cellState = iota
	cellClaimed
	cellDone
)

// cell is one sweep slot. Slots with duplicate keys are distinct cells
// (mirroring exp.RunSpecs, which journals each slot), but only the
// first executes remotely — completions copy to same-key siblings.
type cell struct {
	spec   exp.Spec
	key    string
	state  cellState
	owner  string
	expiry time.Time
	res    exp.Result
	err    error
	batch  *Batch
}

// Stats is a consistent snapshot of the coordinator's gauges, exposed on
// /status and mirrored into an attached metrics registry.
type Stats struct {
	Cells    int `json:"cells"`
	Done     int `json:"done"`
	Failed   int `json:"failed"`
	Restored int `json:"restored"`
	// Claimed counts leases currently held.
	Claimed int `json:"claimed"`
	// Workers counts distinct workers seen within the last two TTLs.
	Workers          int    `json:"workers"`
	LeasesGranted    uint64 `json:"leases_granted"`
	LeasesExpired    uint64 `json:"leases_expired"`
	DuplicateResults uint64 `json:"duplicate_results"`
	// LateResults counts completions accepted from a worker that no
	// longer held the cell's lease (expired or reassigned).
	LateResults uint64 `json:"late_results"`
	Closed      bool   `json:"closed"`
}

// Coordinator owns the cell set of a distributed sweep. All state lives
// behind one mutex; every handler expires stale leases lazily on entry,
// so lease bookkeeping cannot deadlock — there is no background goroutine
// to stall.
type Coordinator struct {
	mu   sync.Mutex
	cond *sync.Cond

	ttl    time.Duration
	poll   time.Duration
	clock  func() time.Time
	logf   func(string, ...any)
	loaded map[string]exp.Result
	// front journals settled cells in slot order; flushErr is its first
	// append failure.
	front    *exp.Frontier
	flushErr error

	cells    []*cell
	byKey    map[string][]int // slots per key, in submit order
	restored int
	done     int
	failed   int
	closed   bool

	lastSeen map[string]time.Time
	granted  uint64
	expired  uint64
	dups     uint64
	late     uint64

	reg *metrics.Registry
}

// NewCoordinator builds an empty coordinator; Submit adds cells.
func NewCoordinator(cfg Config) *Coordinator {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.Poll <= 0 {
		cfg.Poll = cfg.LeaseTTL / 4
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	c := &Coordinator{
		ttl:      cfg.LeaseTTL,
		poll:     cfg.Poll,
		clock:    cfg.Clock,
		logf:     cfg.Logf,
		loaded:   cfg.Loaded,
		byKey:    map[string][]int{},
		lastSeen: map[string]time.Time{},
	}
	c.cond = sync.NewCond(&c.mu)
	// Settle is only called under c.mu, so onErr runs under it too.
	c.front = exp.NewFrontier(cfg.Journal, func(i int, err error) {
		c.logf("dist: journal append for %s failed: %v", c.cells[i].key, err)
		if c.flushErr == nil {
			c.flushErr = fmt.Errorf("dist: journal: %w", err)
		}
	})
	return c
}

// AttachMetrics registers the coordinator's gauges on reg (nil-safe) and
// samples them on every state change. Call before reg.StartManual; the
// coordinator serializes every Observe under its own mutex.
func (c *Coordinator) AttachMetrics(reg *metrics.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reg = reg
	reg.Gauge("dist.cells", func() float64 { return float64(len(c.cells)) })
	reg.Gauge("dist.done", func() float64 { return float64(c.done) })
	reg.Gauge("dist.claimed", func() float64 { return float64(c.claimedLocked()) })
	reg.Gauge("dist.workers", func() float64 { return float64(c.workersLocked(c.clock())) })
	reg.Gauge("dist.leases_expired", func() float64 { return float64(c.expired) })
	reg.Gauge("dist.duplicate_results", func() float64 { return float64(c.dups) })
}

// Batch is one Submit's slice of the sweep; Wait blocks for its cells.
type Batch struct {
	c     *Coordinator
	cells []*cell
}

// Submit appends specs to the sweep as new cells, in order, consuming
// journal restores by key (first undone slot wins, like exp.RunSpecs).
// Panics after Close — the shutdown handshake with workers depends on
// "closed" being final.
func (c *Coordinator) Submit(specs []exp.Spec) *Batch {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		panic("dist: Submit after Close")
	}
	b := &Batch{c: c}
	for _, s := range specs {
		cl := &cell{spec: s, key: s.Key(), batch: b}
		if res, ok := c.loaded[cl.key]; ok {
			delete(c.loaded, cl.key)
			cl.state = cellDone
			cl.res = exp.CanonicalResult(res, s)
			c.restored++
			c.done++
			c.front.Settle(len(c.cells), nil)
		}
		c.byKey[cl.key] = append(c.byKey[cl.key], len(c.cells))
		c.cells = append(c.cells, cl)
		b.cells = append(b.cells, cl)
	}
	c.observeLocked()
	c.cond.Broadcast()
	return b
}

// Close marks the sweep final: once every cell is done, claims answer
// StatusDone and workers drain. No further Submit is allowed.
func (c *Coordinator) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	c.cond.Broadcast()
}

// DrainWorkers blocks after Close until every recently seen worker has
// claimed once more and been told the sweep is done — so an embedding
// CLI can keep the listener up long enough for workers to exit cleanly
// instead of dying on a connection refused — or until timeout elapses
// (<= 0 picks a default covering one poll round plus the 2×TTL age-out
// of silently dead workers, capped at 10 s). Reports whether the drain
// completed.
func (c *Coordinator) DrainWorkers(timeout time.Duration) bool {
	if timeout <= 0 {
		timeout = 2*c.ttl + c.poll
		if timeout > 10*time.Second {
			timeout = 10 * time.Second
		}
	}
	deadline := time.Now().Add(timeout)
	for {
		c.mu.Lock()
		n := c.workersLocked(c.clock())
		c.mu.Unlock()
		if n == 0 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Err reports the first journal-append failure, if any. The sweep keeps
// running past one — losing the journal must not lose the results — but
// callers should surface it.
func (c *Coordinator) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flushErr
}

// Stats snapshots the gauges.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clock()
	c.expireLocked(now)
	return Stats{
		Cells:            len(c.cells),
		Done:             c.done,
		Failed:           c.failed,
		Restored:         c.restored,
		Claimed:          c.claimedLocked(),
		Workers:          c.workersLocked(now),
		LeasesGranted:    c.granted,
		LeasesExpired:    c.expired,
		DuplicateResults: c.dups,
		LateResults:      c.late,
		Closed:           c.closed,
	}
}

func (c *Coordinator) claimedLocked() int {
	n := 0
	for _, cl := range c.cells {
		if cl.state == cellClaimed {
			n++
		}
	}
	return n
}

func (c *Coordinator) workersLocked(now time.Time) int {
	n := 0
	for _, seen := range c.lastSeen {
		if now.Sub(seen) <= 2*c.ttl {
			n++
		}
	}
	return n
}

// expireLocked returns expired leases to the queue. Expiry is lazy —
// checked on every request and snapshot under the same mutex — so there
// is no reaper goroutine to race or deadlock with.
func (c *Coordinator) expireLocked(now time.Time) {
	for i, cl := range c.cells {
		if cl.state == cellClaimed && !now.Before(cl.expiry) {
			c.logf("dist: lease on cell %d (%s) held by %s expired; requeued", i, cl.key, cl.owner)
			cl.state = cellPending
			cl.owner = ""
			c.expired++
		}
	}
}

// observeLocked mirrors the gauges into the attached registry.
func (c *Coordinator) observeLocked() {
	c.reg.Observe() // nil-safe
}

// completeLocked finishes cell i and copies the completion to same-key
// sibling slots (each fresh sibling still journals its own line, exactly
// like the sequential path running a duplicate spec twice). res must
// already be canonical for cells[i].
func (c *Coordinator) completeLocked(i int, res exp.Result, err error) {
	cl := c.cells[i]
	for _, j := range c.byKey[cl.key] {
		sib := c.cells[j]
		if sib.state == cellDone {
			continue
		}
		sib.state = cellDone
		sib.owner = ""
		sib.err = err
		c.done++
		if err != nil {
			c.failed++
			c.front.Settle(j, nil)
			continue
		}
		sib.res = exp.CanonicalResult(res, sib.spec)
		c.front.Settle(j, &sib.res)
	}
	c.observeLocked()
	c.cond.Broadcast()
}

// doneLocked reports whether every cell of b is finished.
func (b *Batch) doneLocked() bool {
	for _, cl := range b.cells {
		if cl.state != cellDone {
			return false
		}
	}
	return true
}

// Wait blocks until every cell of the batch is done and returns results
// and errors aligned with the submitted specs (the same contract as
// exp.RunSpecs). A worker-reported cell failure is a
// *RemoteCellError; Wait itself only fails when ctx does.
func (b *Batch) Wait(ctx context.Context) ([]exp.Result, []error, error) {
	stop := context.AfterFunc(ctx, func() {
		b.c.mu.Lock()
		b.c.cond.Broadcast()
		b.c.mu.Unlock()
	})
	defer stop()
	b.c.mu.Lock()
	defer b.c.mu.Unlock()
	for !b.doneLocked() && ctx.Err() == nil {
		b.c.cond.Wait()
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	results := make([]exp.Result, len(b.cells))
	errs := make([]error, len(b.cells))
	for i, cl := range b.cells {
		results[i], errs[i] = cl.res, cl.err
	}
	return results, errs, nil
}

// RemoteCellError is a terminal cell failure reported by a worker: the
// cell ran to a deterministic error (audit violation, stall, contained
// panic) and must not be retried.
type RemoteCellError struct {
	Worker string
	Msg    string
}

// Error implements error.
func (e *RemoteCellError) Error() string {
	return fmt.Sprintf("remote cell failed on %s: %s", e.Worker, e.Msg)
}

// Handler returns the coordinator's HTTP surface.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathClaim, c.handleClaim)
	mux.HandleFunc(PathHeartbeat, c.handleHeartbeat)
	mux.HandleFunc(PathResult, c.handleResult)
	mux.HandleFunc(PathStatus, c.handleStatus)
	return mux
}

// reply writes v as JSON; encoding of our own response types cannot fail.
func reply(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func (c *Coordinator) handleClaim(w http.ResponseWriter, r *http.Request) {
	var req ClaimRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := req.Validate(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	reply(w, c.claim(req.Worker))
}

// claim hands out the first pending cell, or a wait/done verdict.
func (c *Coordinator) claim(worker string) ClaimResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clock()
	c.lastSeen[worker] = now
	c.expireLocked(now)
	for i, cl := range c.cells {
		if cl.state != cellPending {
			continue
		}
		raw, err := json.Marshal(cl.spec)
		if err != nil {
			// A spec the wire cannot carry is a deterministic cell failure,
			// exactly as if the cell itself had errored.
			c.logf("dist: cell %d (%s) is not wire-encodable: %v", i, cl.key, err)
			c.completeLocked(i, exp.Result{}, fmt.Errorf("dist: spec not wire-encodable: %w", err))
			continue
		}
		cl.state = cellClaimed
		cl.owner = worker
		cl.expiry = now.Add(c.ttl)
		c.granted++
		c.logf("dist: leased cell %d (%s) to %s", i, cl.key, worker)
		c.observeLocked()
		return ClaimResponse{
			Status:  StatusCell,
			ID:      i,
			Key:     cl.key,
			Spec:    raw,
			LeaseMS: c.ttl.Milliseconds(),
		}
	}
	if c.closed && c.done == len(c.cells) {
		// The worker is leaving: forget it so DrainWorkers can tell an
		// orderly shutdown from an abandoned one.
		delete(c.lastSeen, worker)
		c.cond.Broadcast()
		return ClaimResponse{Status: StatusDone}
	}
	// Nothing pending right now, but leases may expire or batches may
	// still be submitted: poll again.
	return ClaimResponse{Status: StatusWait, PollMS: c.poll.Milliseconds()}
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := req.Validate(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	reply(w, c.heartbeat(req))
}

// heartbeat renews a live lease; anything else — expired, reassigned,
// unknown cell, finished cell — answers OK false without mutating state.
func (c *Coordinator) heartbeat(req HeartbeatRequest) HeartbeatResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clock()
	c.lastSeen[req.Worker] = now
	c.expireLocked(now)
	if req.ID >= len(c.cells) {
		return HeartbeatResponse{}
	}
	cl := c.cells[req.ID]
	if cl.state != cellClaimed || cl.owner != req.Worker || cl.key != req.Key {
		return HeartbeatResponse{}
	}
	cl.expiry = now.Add(c.ttl)
	return HeartbeatResponse{OK: true, LeaseMS: c.ttl.Milliseconds()}
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	var req ResultRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := req.Validate(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	reply(w, c.result(req))
}

// result merges one completion. Unknown or mismatched cells are rejected
// terminally (the worker must not retry); duplicates are acknowledged
// idempotently; late results — the lease expired or moved — are accepted,
// because cells are deterministic and a correct result is a correct
// result no matter who computed it.
func (c *Coordinator) result(req ResultRequest) ResultResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clock()
	c.lastSeen[req.Worker] = now
	c.expireLocked(now)
	if req.ID >= len(c.cells) {
		return ResultResponse{Reason: fmt.Sprintf("unknown cell id %d", req.ID)}
	}
	cl := c.cells[req.ID]
	if cl.key != req.Key {
		return ResultResponse{Reason: fmt.Sprintf("cell %d key mismatch", req.ID)}
	}
	if cl.state == cellDone {
		c.dups++
		c.observeLocked()
		return ResultResponse{Accepted: true, Duplicate: true}
	}
	if cl.state != cellClaimed || cl.owner != req.Worker {
		c.late++
		c.logf("dist: late result for cell %d (%s) from %s accepted", req.ID, cl.key, req.Worker)
	}
	if req.Error != "" {
		c.logf("dist: cell %d (%s) failed on %s: %s", req.ID, cl.key, req.Worker, req.Error)
		c.completeLocked(req.ID, exp.Result{}, &RemoteCellError{Worker: req.Worker, Msg: req.Error})
		return ResultResponse{Accepted: true}
	}
	var res exp.Result
	if err := json.Unmarshal(req.Result, &res); err != nil {
		// A result body that does not decode is a torn stream, not a cell
		// verdict: reject it and leave the lease as-is so the worker can
		// retry the delivery (or the lease can expire).
		return ResultResponse{Reason: fmt.Sprintf("result does not decode: %v", err)}
	}
	c.logf("dist: cell %d (%s) completed by %s", req.ID, cl.key, req.Worker)
	c.completeLocked(req.ID, exp.CanonicalResult(res, cl.spec), nil)
	return ResultResponse{Accepted: true}
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	reply(w, c.Stats())
}
