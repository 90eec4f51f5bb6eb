// Package dist fans sweep execution out across processes and machines.
// A coordinator publishes the cell set of a sweep — keyed by the same
// canonical Spec.Key() the memo cache and journal use — and hands out
// lease-based claims over plain HTTP+JSON; workers run cells with the
// standard panic containment and stream results back. The coordinator
// merges completions into the append-only journal in sweep order, so the
// merged journal and every rendered figure are byte-identical to a
// single-process `-jobs 1` run regardless of worker count, completion
// order, or churn (workers dying, hanging, and rejoining mid-sweep).
//
// Robustness contract, in priority order:
//
//   - Correctness under churn. A claim is a lease with a TTL; a worker
//     renews it by heartbeat while the cell runs. A silent worker (died,
//     hung, partitioned) loses the lease and the cell returns to the
//     queue. Completions are idempotent by cell: duplicate and late
//     results — a worker finishing a cell whose lease it lost — are
//     accepted or ignored without corrupting the merge, because cells
//     are deterministic functions of their spec.
//   - Determinism of the merge. Results are journaled strictly in sweep
//     order behind a watermark (a completed cell waits for its
//     predecessors), and every result that crossed the wire is re-keyed
//     to the coordinator's canonical spec via exp.CanonicalResult — the
//     same entry point journal resume uses.
//   - Graceful degradation. Workers bound every coordinator RPC with a
//     timeout and retry transport failures with jittered exponential
//     backoff; a worker that exhausts retries drains, salvages its
//     undelivered result to a local journal, and exits non-zero rather
//     than wedging. The coordinator never blocks on a worker.
package dist

import (
	"encoding/json"
	"fmt"
	"io"
)

// Endpoint paths of the coordinator's wire protocol.
const (
	PathClaim     = "/claim"
	PathHeartbeat = "/heartbeat"
	PathResult    = "/result"
	PathStatus    = "/status"
)

// ClaimRequest asks the coordinator for one cell to execute.
type ClaimRequest struct {
	// Worker identifies the claimant; leases and heartbeats are checked
	// against it.
	Worker string `json:"worker"`
}

// Validate reports protocol violations.
func (r ClaimRequest) Validate() error {
	if r.Worker == "" {
		return fmt.Errorf("dist: claim needs a worker name")
	}
	return nil
}

// Claim response statuses.
const (
	// StatusCell carries a leased cell to run.
	StatusCell = "cell"
	// StatusWait means no cell is currently available (all claimed or a
	// later batch may still be submitted); poll again after PollMS.
	StatusWait = "wait"
	// StatusDone means the sweep is complete and closed; the worker
	// should exit cleanly.
	StatusDone = "done"
)

// ClaimResponse answers a claim.
type ClaimResponse struct {
	Status string `json:"status"`
	// ID is the cell's slot in the coordinator's sweep-ordered list;
	// heartbeats and results echo it (status "cell" only).
	ID int `json:"id,omitempty"`
	// Key is the cell's canonical Spec.Key().
	Key string `json:"key,omitempty"`
	// Spec is the JSON-marshaled exp.Spec to execute.
	Spec json.RawMessage `json:"spec,omitempty"`
	// LeaseMS is the lease TTL granted; the worker must heartbeat well
	// inside it (a heartbeat landing exactly at the TTL is already late).
	LeaseMS int64 `json:"lease_ms,omitempty"`
	// PollMS is the suggested re-poll delay (status "wait" only).
	PollMS int64 `json:"poll_ms,omitempty"`
}

// HeartbeatRequest renews the lease on a running cell.
type HeartbeatRequest struct {
	Worker string `json:"worker"`
	ID     int    `json:"id"`
	Key    string `json:"key"`
}

// Validate reports protocol violations.
func (r HeartbeatRequest) Validate() error {
	switch {
	case r.Worker == "":
		return fmt.Errorf("dist: heartbeat needs a worker name")
	case r.ID < 0:
		return fmt.Errorf("dist: heartbeat cell id %d is negative", r.ID)
	case r.Key == "":
		return fmt.Errorf("dist: heartbeat needs a cell key")
	}
	return nil
}

// HeartbeatResponse answers a renewal. OK false means the lease is gone
// — expired or reassigned. The worker may still finish and report the
// cell (the result is accepted idempotently), but it should expect the
// completion to be marked late or duplicate.
type HeartbeatResponse struct {
	OK      bool  `json:"ok"`
	LeaseMS int64 `json:"lease_ms,omitempty"`
}

// ResultRequest delivers a completed cell: exactly one of Result (the
// JSON-marshaled exp.Result) or Error (a terminal cell failure — audit
// violation, stall, contained panic) is set.
type ResultRequest struct {
	Worker string          `json:"worker"`
	ID     int             `json:"id"`
	Key    string          `json:"key"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// Validate reports protocol violations.
func (r ResultRequest) Validate() error {
	switch {
	case r.Worker == "":
		return fmt.Errorf("dist: result needs a worker name")
	case r.ID < 0:
		return fmt.Errorf("dist: result cell id %d is negative", r.ID)
	case r.Key == "":
		return fmt.Errorf("dist: result needs a cell key")
	case len(r.Result) == 0 && r.Error == "":
		return fmt.Errorf("dist: result carries neither a result nor an error")
	case len(r.Result) > 0 && r.Error != "":
		return fmt.Errorf("dist: result carries both a result and an error")
	}
	return nil
}

// ResultResponse acknowledges a delivery. Accepted false means the
// message was malformed or named an unknown cell — the worker should not
// retry it. Duplicate marks an idempotent re-delivery of an already
// completed cell.
type ResultResponse struct {
	Accepted  bool   `json:"accepted"`
	Duplicate bool   `json:"duplicate,omitempty"`
	Reason    string `json:"reason,omitempty"`
}

// decodeStrict parses one JSON wire message, rejecting unknown fields
// and trailing garbage — a torn or concatenated stream must fail loudly,
// not half-apply.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("dist: parsing message: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("dist: trailing data after message")
	}
	return nil
}
