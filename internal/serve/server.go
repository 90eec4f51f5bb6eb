// Package serve is the memnetd daemon core: an overload-tolerant HTTP
// front end over the exp harness. Submissions are JSON batches of
// declarative specs (the same SpecJSON shape `memnetsim -config` reads);
// admitted jobs run on a bounded worker pool with per-job wall/event
// budgets and per-cell panic containment, stream their progress and
// epoch metrics over SSE, and persist every fresh result in a
// content-addressed store so duplicate submissions are cache hits served
// without simulation.
//
// Robustness contracts, in priority order:
//
//   - Overload degrades, never topples. Admission is a bounded queue;
//     when it is full the daemon answers 429 with Retry-After instead of
//     queueing unboundedly, and when it is draining it answers 503.
//   - Abandonment is cheap. Every job runs under a context; a canceled
//     job (client disconnect on a streaming submit, DELETE, or drain
//     timeout) stops consuming CPU within one kernel check interval.
//   - A poisoned cell fails alone. Panics inside a simulation come back
//     as exp.PanicError per cell; the job reports the failure and the
//     daemon keeps serving.
//   - Results survive the process. Fresh results are stored atomically
//     before the job completes, so a crash never re-simulates finished
//     work, and a CLI sweep sharing the store directory hits them too.
package serve

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"memnet/internal/durable"
	"memnet/internal/exp"
)

// Defaults. DefaultMaxBody bounds a submission body and
// DefaultRetryAfter is the backpressure hint on 429 responses.
const (
	DefaultQueueDepth = 16
	DefaultRunners    = 1
	DefaultMaxBody    = 1 << 20
	DefaultRetryAfter = 2 * time.Second
)

// Config parameterizes a Server.
type Config struct {
	// Store persists results content-addressed by spec key (nil = no
	// persistence, every submission simulates).
	Store *durable.Store
	// Accepts, when non-nil, is the write-ahead accept journal: every
	// admitted job is put to it durably before the 202 goes out and
	// deleted from it when it finishes, so Recover can re-enqueue
	// whatever a crashed daemon still owed. A put failure (full disk)
	// degrades to a counter — the job still runs, it just is not
	// durable.
	Accepts *AcceptLog
	// AuthToken, when non-empty, gates the mutating endpoints (POST
	// /jobs, DELETE /jobs/{id}) behind "Authorization: Bearer <token>"
	// with a constant-time compare; everything else stays open so load
	// balancers and dashboards keep working.
	AuthToken string
	// StoreMaxBytes and StoreMaxAge arm the store GC, which runs after
	// every fresh Put with in-flight job keys pinned. Zero disables the
	// corresponding policy.
	StoreMaxBytes int64
	StoreMaxAge   time.Duration
	// QueueDepth bounds admitted-but-not-running jobs (0 =
	// DefaultQueueDepth). A full queue rejects with 429 + Retry-After.
	QueueDepth int
	// Runners is the number of concurrent job executors (0 =
	// DefaultRunners). Cells within a job run sequentially.
	Runners int
	// WallBudget caps a job's wall-clock runtime (0 = unlimited); the
	// job is canceled mid-kernel when it expires.
	WallBudget time.Duration
	// EventBudget caps a job's total simulated events across its cells
	// (0 = unlimited); exceeding it fails the job with a BudgetError.
	EventBudget uint64
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// NewStore forwards to durable.NewStore. Nothing in this module calls
// it: it is kept for the benchmark module's store fixture (bench/'s
// storeMs), and bench/ changes only in a change that re-baselines the
// benchmark. That change should call durable.NewStore there and delete
// this forward.
func NewStore(dir string) (*durable.Store, error) { return durable.NewStore(dir) }

// Server owns the admission queue, the job table and the runner pool.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	runWG sync.WaitGroup

	// admitMu serializes admission against drain: queue sends hold the
	// read side so Drain can close the queue without racing a send.
	admitMu  sync.RWMutex
	queue    chan *job
	draining atomic.Bool

	jobMu  sync.Mutex
	jobs   map[string]*job
	nextID atomic.Uint64

	// Daemon-level gauges/counters, reported on /statusz.
	submitted atomic.Uint64 // jobs admitted
	rejected  atomic.Uint64 // 429s issued
	cacheHits atomic.Uint64 // cells served from the store
	cellsRun  atomic.Uint64 // cells simulated fresh
	canceled  atomic.Uint64 // jobs canceled
	inFlight  atomic.Int64  // jobs currently running
	recovered atomic.Uint64 // jobs replayed from the accept journal
	unauth    atomic.Uint64 // 401s issued
	putErrors atomic.Uint64 // store writes that failed (disk full, ...)
	walErrors atomic.Uint64 // accept-journal puts and deletes that failed
}

// New builds a server and starts its runner pool. Callers must Drain
// before discarding it, or the runners leak.
func New(cfg Config) *Server {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.Runners <= 0 {
		cfg.Runners = DefaultRunners
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &Server{
		cfg:   cfg,
		queue: make(chan *job, cfg.QueueDepth),
		jobs:  map[string]*job{},
	}
	s.initMux()
	for i := 0; i < cfg.Runners; i++ {
		s.runWG.Add(1)
		go s.runner()
	}
	return s
}

// Stats is the /statusz payload. The store block reports a cached scan
// (fresh within durable.ScanCacheTTL of any store mutation): entry count, total
// bytes, lifetime quarantine/eviction counters, and — crucially — the
// scan error itself when the store directory cannot be read, instead of
// silently claiming an empty store.
type Stats struct {
	Submitted      uint64 `json:"submitted"`
	Recovered      uint64 `json:"recovered"`
	Rejected       uint64 `json:"rejected"`
	Unauthorized   uint64 `json:"unauthorized"`
	Canceled       uint64 `json:"canceled"`
	CacheHits      uint64 `json:"cache_hits"`
	CellsRun       uint64 `json:"cells_run"`
	QueueLen       int    `json:"queue_len"`
	InFlight       int64  `json:"in_flight"`
	Draining       bool   `json:"draining"`
	StoreEntries   int    `json:"store_entries"`
	StoreBytes     int64  `json:"store_bytes"`
	StorePutErrors uint64 `json:"store_put_errors"`
	Quarantined    uint64 `json:"quarantined"`
	Evictions      uint64 `json:"evictions"`
	AcceptErrors   uint64 `json:"accept_journal_errors"`
	StoreScanError string `json:"store_scan_error,omitempty"`
}

// Stats snapshots the daemon counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Submitted:      s.submitted.Load(),
		Recovered:      s.recovered.Load(),
		Rejected:       s.rejected.Load(),
		Unauthorized:   s.unauth.Load(),
		Canceled:       s.canceled.Load(),
		CacheHits:      s.cacheHits.Load(),
		CellsRun:       s.cellsRun.Load(),
		QueueLen:       len(s.queue),
		InFlight:       s.inFlight.Load(),
		Draining:       s.draining.Load(),
		StorePutErrors: s.putErrors.Load(),
		AcceptErrors:   s.walErrors.Load(),
	}
	if s.cfg.Store != nil {
		entries, bytes, err := s.cfg.Store.CachedScan()
		st.StoreEntries = entries
		st.StoreBytes = bytes
		if err != nil {
			st.StoreScanError = err.Error()
		}
		st.Quarantined = s.cfg.Store.Quarantined()
		st.Evictions = s.cfg.Store.Evictions()
	}
	if s.cfg.Accepts != nil {
		st.Quarantined += s.cfg.Accepts.Quarantined()
	}
	return st
}

// Handler returns the daemon's HTTP mux.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) initMux() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	s.mux.HandleFunc("GET /statusz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	s.mux.HandleFunc("POST /jobs", s.authed(s.handleSubmit))
	s.mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /jobs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("DELETE /jobs/{id}", s.authed(s.handleCancel))
}

// authed wraps a mutating handler behind the optional shared-secret
// check: "Authorization: Bearer <token>", compared in constant time so
// the 401 latency leaks nothing about how much of the token matched.
func (s *Server) authed(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.AuthToken != "" {
			got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
			if !ok || subtle.ConstantTimeCompare([]byte(got), []byte(s.cfg.AuthToken)) != 1 {
				s.unauth.Add(1)
				w.Header().Set("WWW-Authenticate", "Bearer")
				http.Error(w, "missing or invalid bearer token", http.StatusUnauthorized)
				return
			}
		}
		h(w, r)
	}
}

// SubmitRequest is the POST /jobs body: the same declarative runs a
// memnetsim config file holds, plus optional per-job budget overrides
// (each capped by the server's own configured budget).
type SubmitRequest struct {
	Runs         []exp.SpecJSON `json:"runs"`
	WallBudgetMS int64          `json:"wall_budget_ms,omitempty"`
	EventBudget  uint64         `json:"event_budget,omitempty"`
	// MetricsInterval ("10us"-style) arms the epoch-resolution sampler
	// on every run; each fresh cell then emits a "metrics" stream event
	// with its time-series dump. It participates in the spec key, so
	// metrics-armed and plain submissions cache separately (exactly the
	// exp.Spec contract).
	MetricsInterval string `json:"metrics_interval,omitempty"`
}

// SubmitResponse acknowledges an admitted job. Durable reports whether
// the accept record reached stable storage before this ack: false means
// the job runs but will not survive a crash (no accept journal, or the
// append failed on a full disk) — clients that need the durability
// guarantee must check it rather than trust the 202 alone.
type SubmitResponse struct {
	ID      string   `json:"id"`
	State   string   `json:"state"`
	Keys    []string `json:"keys"`
	Durable bool     `json:"durable"`
}

// DurableHeader is set on every submit response ("true"/"false"),
// mirroring SubmitResponse.Durable for streaming submissions whose body
// is the SSE event stream rather than the JSON ack.
const DurableHeader = "X-Memnetd-Durable"

// handleSubmit admits one job. With ?stream=1 the job is bound to the
// request: the response is the job's SSE stream and a client disconnect
// cancels the simulation (the end-to-end cancellation path).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining: not admitting jobs", http.StatusServiceUnavailable)
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, DefaultMaxBody))
	dec.DisallowUnknownFields()
	var req SubmitRequest
	if err := dec.Decode(&req); err != nil {
		http.Error(w, "bad submission: "+err.Error(), http.StatusBadRequest)
		return
	}
	rec := AcceptedJob{
		Runs:            req.Runs,
		WallBudgetMS:    req.WallBudgetMS,
		EventBudget:     req.EventBudget,
		MetricsInterval: req.MetricsInterval,
	}
	specs, keys, err := specsFromAccepted(rec)
	if err != nil {
		http.Error(w, "bad submission: "+err.Error(), http.StatusBadRequest)
		return
	}

	stream := r.URL.Query().Get("stream") == "1"
	base := context.Background()
	if stream {
		// Bind the job to the request: a dropped client cancels the
		// simulation within one kernel check interval.
		base = r.Context()
	}
	id := fmt.Sprintf("j%d", s.nextID.Add(1))
	j := s.buildJob(id, specs, keys, base, req.WallBudgetMS, req.EventBudget)
	if s.cfg.Accepts != nil {
		j.accepted = make(chan struct{})
	}

	// Admission: non-blocking send into the bounded queue under the
	// read lock (Drain holds the write lock while closing the channel).
	s.admitMu.RLock()
	admitted := false
	if !s.draining.Load() {
		select {
		case s.queue <- j:
			admitted = true
		default:
		}
	}
	s.admitMu.RUnlock()
	if !admitted {
		j.cancel()
		if s.draining.Load() {
			http.Error(w, "draining: not admitting jobs", http.StatusServiceUnavailable)
			return
		}
		s.rejected.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(int(DefaultRetryAfter/time.Second)))
		http.Error(w, "queue full: retry later", http.StatusTooManyRequests)
		return
	}
	// Write-ahead: the accept record must be on disk before the client
	// is acked. A failed put (full disk) degrades rather than failing
	// the job — but the degradation is told to the client (Durable:false
	// in the ack and the X-Memnetd-Durable header), not just counted, so
	// a caller that needs crash-survival can resubmit elsewhere instead
	// of trusting a 202 that only looks durable. A runner may already
	// have finished the job; its finishJob waits on j.accepted, so the
	// record is never deleted before it is written.
	durable := false
	if s.cfg.Accepts != nil {
		rec.ID = id
		if err := s.cfg.Accepts.Accept(rec); err != nil {
			s.walErrors.Add(1)
			s.cfg.Logf("serve: accept journal put for %s: %v", id, err)
		} else {
			durable = true
		}
		close(j.accepted)
	}
	w.Header().Set(DurableHeader, strconv.FormatBool(durable))
	s.jobMu.Lock()
	s.jobs[id] = j
	s.jobMu.Unlock()
	s.submitted.Add(1)
	s.cfg.Logf("serve: admitted %s (%d cells, stream=%v)", id, len(keys), stream)
	j.publish("status", j.status(false))

	if !stream {
		writeJSON(w, http.StatusAccepted, SubmitResponse{ID: id, State: StateQueued, Keys: keys, Durable: durable})
		return
	}
	s.streamJob(w, r, j)
}

// specsFromAccepted rebuilds runnable specs and their cache keys from a
// submission's durable form — the one parse path both fresh submissions
// and crash recovery go through, so a recovered job is bit-identical to
// its original admission and a record the range check now rejects is
// unreplayable. The metrics interval is the job's only run-wide
// setting: cells run unaudited (README explains why).
func specsFromAccepted(aj AcceptedJob) ([]exp.Spec, []string, error) {
	if len(aj.Runs) == 0 {
		return nil, nil, errors.New("no runs")
	}
	var st exp.Settings
	var err error
	if st.Metrics, err = exp.ParseSimDuration(aj.MetricsInterval); err != nil {
		return nil, nil, fmt.Errorf("metrics_interval: %w", err)
	}
	specs := make([]exp.Spec, len(aj.Runs))
	keys := make([]string, len(aj.Runs))
	for i, sj := range aj.Runs {
		spec, err := sj.ToSpec()
		if err == nil {
			spec = st.Apply(spec)
			err = spec.Validate()
		}
		if err != nil {
			return nil, nil, fmt.Errorf("run %d: %w", i, err)
		}
		specs[i] = spec
		keys[i] = spec.Key()
	}
	return specs, keys, nil
}

// buildJob assembles a runnable job: per-job contexts and budget
// overrides, each capped by the server's own configured budget.
func (s *Server) buildJob(id string, specs []exp.Spec, keys []string, base context.Context, wallMS int64, eventBudget uint64) *job {
	wall := s.cfg.WallBudget
	if wallMS > 0 {
		reqWall := time.Duration(wallMS) * time.Millisecond
		if wall == 0 || reqWall < wall {
			wall = reqWall
		}
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if wall > 0 {
		ctx, cancel = context.WithTimeout(base, wall)
	} else {
		ctx, cancel = context.WithCancel(base)
	}
	j := newJob(id, keys, ctx, cancel)
	j.specs = specs
	j.eventBudget = s.cfg.EventBudget
	if eventBudget > 0 && (j.eventBudget == 0 || eventBudget < j.eventBudget) {
		j.eventBudget = eventBudget
	}
	return j
}

// Recover re-enqueues every job a previous process life accepted but
// never finished — the replay half of the write-ahead accept journal —
// under its original id; fresh ids continue past the highest one.
// Cells whose results already reached the store come back as cache
// hits, so only genuinely lost compute re-runs. Call it once, after New
// and before serving traffic; it blocks until everything is enqueued
// (the runner pool drains the queue underneath it, so pending sets
// larger than the queue depth recover fine). It returns the number of
// jobs re-enqueued.
func (s *Server) Recover(pending []AcceptedJob) int {
	n := 0
	for _, aj := range pending {
		specs, keys, err := specsFromAccepted(aj)
		if err != nil || aj.ID == "" {
			// A record that cannot be rebuilt (version drift, hand-edited
			// journal) would otherwise replay forever: delete it.
			s.cfg.Logf("serve: recover %q: unreplayable (%v); deleting its record", aj.ID, err)
			if s.cfg.Accepts != nil && aj.ID != "" {
				if ferr := s.cfg.Accepts.Finish(aj.ID); ferr != nil {
					s.walErrors.Add(1)
				}
			}
			continue
		}
		s.bumpID(aj.ID)
		j := s.buildJob(aj.ID, specs, keys, context.Background(), aj.WallBudgetMS, aj.EventBudget)
		s.admitMu.RLock()
		if s.draining.Load() {
			s.admitMu.RUnlock()
			j.cancel()
			break
		}
		s.queue <- j
		s.admitMu.RUnlock()
		s.jobMu.Lock()
		s.jobs[aj.ID] = j
		s.jobMu.Unlock()
		s.recovered.Add(1)
		n++
		s.cfg.Logf("serve: recovered %s (%d cells)", aj.ID, len(keys))
		j.publish("status", j.status(false))
	}
	return n
}

// bumpID raises the id counter to at least the numeric part of a
// recovered id, so fresh admissions never collide with replayed jobs.
func (s *Server) bumpID(id string) {
	n, ok := jobIDNum(id)
	if !ok {
		return
	}
	for {
		cur := s.nextID.Load()
		if cur >= n || s.nextID.CompareAndSwap(cur, n) {
			return
		}
	}
}

// lookup resolves {id} or answers 404.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *job {
	s.jobMu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.jobMu.Unlock()
	if j == nil {
		http.Error(w, "unknown job", http.StatusNotFound)
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.status(true))
	}
}

// handleResult serves the job's per-cell results — the exact stored
// bytes, so cached and fresh deliveries are byte-identical — once the
// job is terminal; before that it answers 202 with the status.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	state := j.state
	results := append([]json.RawMessage(nil), j.results...)
	j.mu.Unlock()
	if state != StateDone && state != StateFailed && state != StateCanceled {
		writeJSON(w, http.StatusAccepted, j.status(false))
		return
	}
	out := struct {
		Status  Status            `json:"status"`
		Results []json.RawMessage `json:"results"`
	}{Status: j.status(true), Results: results}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		s.streamJob(w, r, j)
	}
}

// handleCancel cancels a job; idempotent, 200 either way.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	s.cancelJob(j, "canceled by client")
	writeJSON(w, http.StatusOK, j.status(false))
}

// cancelJob cancels j's context and, if j had not started, finishes it
// immediately so it cannot occupy a runner.
func (s *Server) cancelJob(j *job, why string) {
	j.cancel()
	j.mu.Lock()
	queued := j.state == StateQueued
	j.mu.Unlock()
	if queued {
		// Losing the race to a runner is fine: the canceled context
		// bounces the job straight back through runJob's finish path.
		s.finishJob(j, StateCanceled, why, j.status(false))
	}
}

// finishJob moves j to a terminal state and, when this call performed
// the transition, updates the cancel counter and deletes the job's
// accept record — once its Accept has returned. Drain-canceled jobs
// keep their record on purpose: they are the jobs the next process
// life must resume.
func (s *Server) finishJob(j *job, state, errMsg string, summary any) bool {
	if !j.finish(state, errMsg, summary) {
		return false
	}
	if state == StateCanceled {
		s.canceled.Add(1)
	}
	skip := state == StateCanceled && j.skipTombstone.Load()
	if s.cfg.Accepts != nil && !skip {
		if j.accepted != nil {
			<-j.accepted
		}
		if err := s.cfg.Accepts.Finish(j.id); err != nil {
			s.walErrors.Add(1)
			s.cfg.Logf("serve: accept journal delete for %s: %v", j.id, err)
		}
	}
	return true
}

// streamJob writes the job's event log as SSE until the job finishes or
// the client goes away.
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request, j *job) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusNotImplemented)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	replay, live := j.subscribe()
	defer j.unsubscribe(live)
	for _, ev := range replay {
		writeSSE(w, ev)
	}
	fl.Flush()
	if live == nil {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-live:
			if !ok {
				return
			}
			writeSSE(w, ev)
			fl.Flush()
		}
	}
}

func writeSSE(w http.ResponseWriter, ev Event) {
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, ev.Data)
}

// runner drains the admission queue until Drain closes it.
func (s *Server) runner() {
	defer s.runWG.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// cellResult is the payload of "result" stream events.
type cellResult struct {
	Index  int    `json:"index"`
	Key    string `json:"key"`
	Cached bool   `json:"cached"`
	Error  string `json:"error,omitempty"`
}

// metricsEvent is the payload of "metrics" stream events: the epoch
// time-series of one freshly simulated, metrics-armed cell.
type metricsEvent struct {
	Index int             `json:"index"`
	Key   string          `json:"key"`
	Dump  json.RawMessage `json:"dump"`
}

// runJob executes one job's cells sequentially: store lookup first
// (cache hits never simulate), then a budgeted, cancelable, panic-
// contained simulation; fresh results are persisted before the next
// cell starts.
func (s *Server) runJob(j *job) {
	if !j.setStateIf(StateQueued, StateRunning) {
		return // canceled while queued
	}
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	j.publish("status", j.status(false))
	remaining := j.eventBudget
	failed := false
	for i, spec := range j.specs {
		if err := j.ctx.Err(); err != nil {
			s.finishJob(j, StateCanceled, err.Error(), j.status(false))
			return
		}
		key := j.keys[i]
		if s.cfg.Store != nil {
			raw, hit, err := s.cfg.Store.Get(key)
			if err != nil {
				// ErrCorrupt means the entry was quarantined and this is
				// now a cache miss; either way the cell re-simulates —
				// corrupt bytes are never served and never a 500.
				s.cfg.Logf("serve: %s: store read for %s: %v", j.id, key, err)
			} else if hit {
				s.cacheHits.Add(1)
				j.completeCell(i, raw, "", true)
				continue
			}
		}
		var budget exp.Budget
		if j.eventBudget > 0 {
			if remaining == 0 {
				j.completeCell(i, nil, "event budget exhausted", false)
				failed = true
				continue
			}
			budget.MaxEvents = remaining
		}
		res, err := exp.RunBudgeted(j.ctx, spec, budget)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				why := "canceled"
				if errors.Is(err, context.DeadlineExceeded) {
					why = "wall budget exhausted"
				}
				s.finishJob(j, StateCanceled, why, j.status(false))
				return
			}
			// Budget overruns, audit violations and contained panics fail
			// this cell only; the job carries on so independent cells
			// still complete (mirroring the sweep pool's contract).
			s.cfg.Logf("serve: %s: cell %s failed: %v", j.id, key, err)
			j.completeCell(i, nil, err.Error(), false)
			failed = true
			continue
		}
		s.cellsRun.Add(1)
		if j.eventBudget > 0 {
			if res.Events >= remaining {
				remaining = 0
			} else {
				remaining -= res.Events
			}
		}
		raw, merr := json.Marshal(res)
		if merr != nil {
			j.completeCell(i, nil, "result not encodable: "+merr.Error(), false)
			failed = true
			continue
		}
		if s.cfg.Store != nil {
			if err := s.cfg.Store.Put(key, raw); err != nil {
				// Disk-full degradation: the fresh result still goes to
				// the client; only the cache misses out.
				s.putErrors.Add(1)
				s.cfg.Logf("serve: %s: store write for %s: %v", j.id, key, err)
			} else if s.cfg.StoreMaxBytes > 0 || s.cfg.StoreMaxAge > 0 {
				gcCfg := durable.GCConfig{
					MaxBytes: s.cfg.StoreMaxBytes,
					MaxAge:   s.cfg.StoreMaxAge,
					Pinned:   s.pinnedKeys(),
				}
				if _, gerr := s.cfg.Store.GC(gcCfg); gerr != nil {
					s.cfg.Logf("serve: store gc: %v", gerr)
				}
			}
		}
		j.completeCell(i, raw, "", false)
		if res.Metrics != nil {
			if md, err := json.Marshal(res.Metrics); err == nil {
				j.publish("metrics", metricsEvent{Index: i, Key: key, Dump: md})
			}
		}
	}
	if failed {
		s.finishJob(j, StateFailed, "one or more cells failed", j.status(true))
	} else {
		s.finishJob(j, StateDone, "", j.status(false))
	}
}

// pinnedKeys snapshots the spec keys of every non-terminal job so GC
// never evicts an entry an in-flight job just wrote or is about to hit.
func (s *Server) pinnedKeys() map[string]bool {
	pinned := map[string]bool{}
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	for _, j := range s.jobs {
		j.mu.Lock()
		if j.state == StateQueued || j.state == StateRunning {
			for _, k := range j.keys {
				pinned[k] = true
			}
		}
		j.mu.Unlock()
	}
	return pinned
}

// Drain stops admission and waits for queued and running jobs to
// finish. When ctx expires first, every remaining job is canceled and
// the wait resumes until the runners exit (cancellation aborts each
// kernel within one check interval, so this is prompt). Drain is
// idempotent; it returns ctx's error when the deadline forced
// cancellation.
func (s *Server) Drain(ctx context.Context) error {
	if s.draining.Swap(true) {
		<-s.drained()
		return nil
	}
	s.cfg.Logf("serve: draining: admission stopped")
	// Close the queue so idle runners exit; in-flight sends are excluded
	// by the write lock.
	s.admitMu.Lock()
	close(s.queue)
	s.admitMu.Unlock()

	select {
	case <-s.drained():
		return nil
	case <-ctx.Done():
	}
	s.cfg.Logf("serve: drain deadline hit: canceling remaining jobs")
	s.jobMu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.jobMu.Unlock()
	for _, j := range jobs {
		// A drain-deadline cancel is the one terminal state that must NOT
		// delete the accept record: the job was admitted and never
		// served, so the next process life owes it a replay.
		j.skipTombstone.Store(true)
		s.cancelJob(j, "canceled by drain deadline")
	}
	<-s.drained()
	return ctx.Err()
}

// drained returns a channel closed when every runner has exited.
func (s *Server) drained() <-chan struct{} {
	ch := make(chan struct{})
	go func() {
		s.runWG.Wait()
		close(ch)
	}()
	return ch
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}
