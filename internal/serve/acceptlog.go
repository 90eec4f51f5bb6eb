// Write-ahead accept journal: the durable record of every submission
// the daemon has acknowledged. One JSON line is fsynced per admitted
// job *before* the 202 goes out, and one tombstone line when the job
// reaches a terminal state, so after a SIGKILL the set
// "accepted minus tombstoned" is exactly the work still owed. Startup
// replays that set and re-enqueues it; cells whose results already
// reached the store come back as cache hits, so a crash loses at most
// in-flight compute, never a submission.
//
// The file is a durable.Log, the sweep journal's log type: flock,
// torn-tail truncation and failed-append repair live there. This file
// owns the records and their replay:
//
//   - Accept/tombstone pairs may appear in either order (the runner
//     can finish a job before its accept record hits the disk), so
//     replay resolves the whole file before deciding what is pending.
//   - The file is compacted (truncated to zero) only when it is fully
//     drained, which is trivially crash-safe; a file with pending
//     records grows until its jobs finish, then resets on the next open.
//   - Jobs whose tombstone append failed (full disk) are replayed and
//     re-enqueued; re-running a finished job is all cache hits, so the
//     degradation costs a store read per cell, not a simulation.
package serve

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"memnet/internal/durable"
	"memnet/internal/exp"
)

// AcceptedJob is the durable form of one admitted submission: enough to
// rebuild the job's specs, budgets and id bit-exactly on restart.
type AcceptedJob struct {
	ID              string         `json:"id"`
	Runs            []exp.SpecJSON `json:"runs"`
	WallBudgetMS    int64          `json:"wall_budget_ms,omitempty"`
	EventBudget     uint64         `json:"event_budget,omitempty"`
	MetricsInterval string         `json:"metrics_interval,omitempty"`
}

// acceptRecord is one line of the file: an accept (Job != nil) or a
// tombstone (Done != "").
type acceptRecord struct {
	Job  *AcceptedJob `json:"job,omitempty"`
	Done string       `json:"done,omitempty"`
}

// AcceptLog appends accept records and tombstones to a JSON-lines file.
type AcceptLog struct {
	log     *durable.Log
	maxSeen uint64
}

// jobIDNum extracts the numeric part of a "j<n>" job id. Non-conforming
// ids (hand-edited journals) report ok=false and never collide with
// generated ids, which are always pure "j<n>".
func jobIDNum(id string) (uint64, bool) {
	rest, ok := strings.CutPrefix(id, "j")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(rest, 10, 64)
	return n, err == nil
}

// OpenAcceptLog opens (creating if needed) the accept journal at path,
// takes the single-writer flock, truncates any torn tail, and returns
// the jobs accepted but not yet finished — in acceptance order, ready
// for Server.Recover. When the file holds no pending work it is
// compacted to empty. fsys nil means the real filesystem.
func OpenAcceptLog(path string, fsys durable.FS) (*AcceptLog, []AcceptedJob, error) {
	var (
		order   []string
		jobs    = map[string]AcceptedJob{}
		done    = map[string]bool{}
		maxSeen uint64
	)
	// Every id in the file raises the floor for fresh ids — tombstones
	// included. A non-compacted file keeps tombstones of finished jobs;
	// if a new process life reused one of those ids, the stale "done"
	// line would resolve against the new job's accept record on the next
	// replay and silently drop an acked submission.
	seeID := func(id string) {
		if n, ok := jobIDNum(id); ok && n > maxSeen {
			maxSeen = n
		}
	}
	log, err := durable.Open(path, fsys, func(line []byte) bool {
		var rec acceptRecord
		if json.Unmarshal(line, &rec) != nil || (rec.Job == nil && rec.Done == "") {
			return false
		}
		switch {
		case rec.Job != nil && rec.Job.ID != "":
			if _, seen := jobs[rec.Job.ID]; !seen {
				order = append(order, rec.Job.ID)
			}
			jobs[rec.Job.ID] = *rec.Job
			seeID(rec.Job.ID)
		case rec.Done != "":
			done[rec.Done] = true
			seeID(rec.Done)
		}
		return true
	})
	if err != nil {
		return nil, nil, fmt.Errorf("accept journal %s: %w", path, err)
	}
	var pending []AcceptedJob
	for _, id := range order {
		if !done[id] {
			pending = append(pending, jobs[id])
		}
	}
	if len(pending) == 0 {
		// Fully drained: compact (safe — nothing to lose).
		if err := log.Reset(); err != nil {
			log.Close()
			return nil, nil, fmt.Errorf("accept journal %s: compact: %w", path, err)
		}
	}
	return &AcceptLog{log: log, maxSeen: maxSeen}, pending, nil
}

// MaxSeenID reports the highest numeric job id across every record the
// file held at open — accepts and tombstones alike. The server raises
// its id counter past it so a fresh admission can never reuse an id
// whose stale tombstone still sits in a non-compacted journal.
func (a *AcceptLog) MaxSeenID() uint64 { return a.maxSeen }

// Accept records one admitted job. It must complete before the client
// is acked — it is the write-ahead half of the durability contract.
func (a *AcceptLog) Accept(job AcceptedJob) error {
	return a.log.Append(acceptRecord{Job: &job})
}

// Finish records that a job reached a terminal state and owes no more
// work. Skipped for drain-canceled jobs, which must be recovered.
func (a *AcceptLog) Finish(id string) error {
	return a.log.Append(acceptRecord{Done: id})
}

// Close releases the file (and with it the flock).
func (a *AcceptLog) Close() error { return a.log.Close() }
