package serve

import (
	"context"
	"encoding/json"
	"sync"
	"sync/atomic"

	"memnet/internal/exp"
)

// Job states. A job moves queued → running → one of the terminal
// states; canceled can also be entered straight from queued (client
// cancel or drain before a runner picked it up).
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Event is one server-sent event of a job's stream: a state change, a
// completed cell, a cell's epoch metrics, or the final summary. Events
// are recorded in order and replayed to late subscribers, so a client
// that connects after cells completed still sees the full history.
type Event struct {
	// Type is the SSE event name: "status", "result", "metrics", "done".
	Type string `json:"-"`
	// Data is the marshaled payload written on the data: line.
	Data json.RawMessage `json:"data"`
}

// subCap bounds a subscriber's buffer. A subscriber that stops reading
// for subCap events is dropped (its channel closed) rather than allowed
// to block the simulation's publisher.
const subCap = 256

// job is one admitted submission.
type job struct {
	id          string
	keys        []string
	specs       []exp.Spec
	eventBudget uint64 // total simulated events across cells (0 = unlimited)

	ctx    context.Context
	cancel context.CancelFunc

	// skipTombstone marks a drain-deadline cancellation: the job keeps
	// its accept record so the next process life recovers it instead
	// of forgetting it.
	skipTombstone atomic.Bool

	// accepted, when non-nil, is closed once handleSubmit's Accept has
	// returned; finishJob waits on it before deleting the record.
	accepted chan struct{}

	// done is closed when the job reaches a terminal state.
	done chan struct{}

	mu       sync.Mutex
	state    string
	cells    int
	finished int      // cells completed (cached, fresh, or failed)
	hits     int      // cells served from the content-addressed store
	cellErrs []string // non-empty entries align with keys
	results  []json.RawMessage
	events   []Event
	subs     map[chan Event]struct{}
	errMsg   string // terminal failure summary
}

func newJob(id string, keys []string, ctx context.Context, cancel context.CancelFunc) *job {
	return &job{
		id:       id,
		keys:     keys,
		ctx:      ctx,
		cancel:   cancel,
		done:     make(chan struct{}),
		state:    StateQueued,
		cells:    len(keys),
		cellErrs: make([]string, len(keys)),
		results:  make([]json.RawMessage, len(keys)),
		subs:     map[chan Event]struct{}{},
	}
}

// newEvent marshals payload into a typ event.
func newEvent(typ string, payload any) Event {
	data, err := json.Marshal(payload)
	if err != nil {
		data = json.RawMessage(`{"error":"event payload not encodable"}`)
	}
	return Event{Type: typ, Data: data}
}

// publish appends an event to the replay log and fans it out.
func (j *job) publish(typ string, payload any) {
	ev := newEvent(typ, payload)
	j.mu.Lock()
	defer j.mu.Unlock()
	j.appendLocked(ev)
}

// appendLocked records ev and fans it out; j.mu must be held. A
// subscriber whose buffer is full is closed and dropped — a stalled
// reader must not stall the job.
func (j *job) appendLocked(ev Event) {
	j.events = append(j.events, ev)
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
			delete(j.subs, ch)
			close(ch)
		}
	}
}

// finish moves the job to a terminal state, publishes the final "done"
// event, closes every subscriber and releases waiters. The state change
// and the "done" event share one critical section, so a subscriber that
// sees the job terminal always replays "done". It reports whether this
// call performed the transition — the caller that wins owns the
// follow-up bookkeeping (counters, the accept record's delete).
func (j *job) finish(state, errMsg string, summary any) bool {
	done := newEvent("done", summary)
	j.mu.Lock()
	if j.state == StateDone || j.state == StateFailed || j.state == StateCanceled {
		j.mu.Unlock()
		return false
	}
	j.state = state
	j.errMsg = errMsg
	j.appendLocked(done)
	for ch := range j.subs {
		delete(j.subs, ch)
		close(ch)
	}
	j.mu.Unlock()
	j.cancel()
	close(j.done)
	return true
}

// subscribe returns the replay of everything published so far plus a
// live channel for what follows. The channel is closed when the job
// finishes or the subscriber lags; the caller must drain it and then
// call unsubscribe (idempotent) on early exit.
func (j *job) subscribe() ([]Event, chan Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	replay := append([]Event(nil), j.events...)
	if j.state == StateDone || j.state == StateFailed || j.state == StateCanceled {
		return replay, nil
	}
	ch := make(chan Event, subCap)
	j.subs[ch] = struct{}{}
	return replay, ch
}

// unsubscribe detaches a live channel (no-op if already dropped).
func (j *job) unsubscribe(ch chan Event) {
	if ch == nil {
		return
	}
	j.mu.Lock()
	if _, ok := j.subs[ch]; ok {
		delete(j.subs, ch)
		close(ch)
	}
	j.mu.Unlock()
}

// Status is the JSON shape of GET /jobs/{id} and of "status"/"done"
// stream events.
type Status struct {
	ID        string   `json:"id"`
	State     string   `json:"state"`
	Cells     int      `json:"cells"`
	Finished  int      `json:"finished"`
	CacheHits int      `json:"cache_hits"`
	Keys      []string `json:"keys,omitempty"`
	CellErrs  []string `json:"cell_errors,omitempty"`
	Error     string   `json:"error,omitempty"`
}

// status snapshots the job under its lock.
func (j *job) status(withKeys bool) Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:        j.id,
		State:     j.state,
		Cells:     j.cells,
		Finished:  j.finished,
		CacheHits: j.hits,
		Error:     j.errMsg,
	}
	if withKeys {
		st.Keys = append([]string(nil), j.keys...)
		for i, e := range j.cellErrs {
			if e != "" {
				st.CellErrs = append(st.CellErrs, j.keys[i]+": "+e)
			}
		}
	}
	return st
}

// setStateIf transitions from → to atomically, reporting whether the
// transition happened. It is how a runner claims a queued job (losing
// the race against a cancel leaves the job terminal).
func (j *job) setStateIf(from, to string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != from {
		return false
	}
	j.state = to
	return true
}

// completeCell records one finished cell — cached, fresh, or failed —
// and publishes its "result" event.
func (j *job) completeCell(i int, raw json.RawMessage, errMsg string, cached bool) {
	j.mu.Lock()
	j.results[i] = raw
	j.cellErrs[i] = errMsg
	j.finished++
	if cached {
		j.hits++
	}
	j.mu.Unlock()
	j.publish("result", cellResult{Index: i, Key: j.keys[i], Cached: cached, Error: errMsg})
}
