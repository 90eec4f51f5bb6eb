// Write-ahead accept journal: a durable.Store rooted at its path, one
// entry per job keyed by job id, put (durably) *before* the 202 goes
// out and deleted when the job reaches a terminal state. After a
// SIGKILL the entries left are exactly the work still owed; startup
// re-enqueues them, and cells already stored come back as cache hits.
// A record that fails its checksum is quarantined and counted, and
// every other record still replays. Deletes are not fsynced: a finished
// job whose record outlives a crash replays as cache hits.
//
// Earlier releases wrote one JSON-lines file at the same path; opening
// it imports its pending jobs once (importV1, the only reader of that
// format left).
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
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

// AcceptLog keeps one store entry per accepted, unfinished job in a
// directory it holds a flock on.
type AcceptLog struct {
	store *durable.Store
	lock  io.Closer
}

// v1Suffix names the aside copy of a v1 journal file while its import
// is in progress.
const v1Suffix = ".v1"

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

// OpenAcceptLog opens (creating if needed) the accept journal directory
// at path, takes its single-writer flock, imports a v1 journal file
// found at path, and returns the jobs accepted but not yet finished —
// in numeric job-id order, ready for Server.Recover. Records that fail
// verification are quarantined (AcceptLog.Quarantined counts them).
// fsys nil means the real filesystem.
func OpenAcceptLog(path string, fsys durable.FS) (_ *AcceptLog, _ []AcceptedJob, err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("accept journal %s: %w", path, err)
		}
	}()
	if fsys == nil {
		fsys = durable.OSFS{}
	}
	if info, err := fsys.Stat(path); err == nil && info.Mode().IsRegular() {
		// A v1 journal: move it aside under its own flock (a v1 daemon
		// still holding it fails the open), then import it below.
		l, err := durable.Lock(path, fsys)
		if err != nil {
			return nil, nil, err
		}
		err = fsys.Rename(path, path+v1Suffix)
		l.Close()
		if err != nil {
			return nil, nil, err
		}
	}
	store, err := durable.NewStoreFS(path, fsys)
	if err != nil {
		return nil, nil, err
	}
	lock, err := durable.Lock(filepath.Join(path, "lock"), fsys)
	if err != nil {
		return nil, nil, err
	}
	a := &AcceptLog{store: store, lock: lock}
	if err := a.importV1(path+v1Suffix, fsys); err != nil {
		a.Close()
		return nil, nil, fmt.Errorf("import v1 journal: %w", err)
	}
	var pending []AcceptedJob
	if _, err := store.Walk(func(key string, rec json.RawMessage) {
		var aj AcceptedJob
		if json.Unmarshal(rec, &aj) != nil {
			aj = AcceptedJob{} // no runs: Recover deletes it as unreplayable
		}
		aj.ID = key
		pending = append(pending, aj)
	}); err != nil {
		a.Close()
		return nil, nil, err
	}
	sort.Slice(pending, func(i, k int) bool { return jobIDLess(pending[i].ID, pending[k].ID) })
	return a, pending, nil
}

// jobIDLess orders ids by their numeric part (0 for a non-generated
// id), then by string.
func jobIDLess(a, b string) bool {
	na, _ := jobIDNum(a)
	nb, _ := jobIDNum(b)
	return na < nb || na == nb && a < b
}

// importV1 puts the pending jobs of the v1 journal file at path, if
// there is one, then removes the file — or quarantines it when it had a
// tail the v1 replay rule stops at. A crash at any point leaves the
// file in place, and the rerun re-puts the same entries.
func (a *AcceptLog) importV1(path string, fsys durable.FS) error {
	data, err := fsys.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	pending, good := replayV1(data)
	for _, aj := range pending {
		if err := a.Accept(aj); err != nil {
			return err
		}
	}
	if good < len(data) {
		return a.store.Quarantine(path)
	}
	return fsys.Remove(path)
}

// replayV1 applies the v1 replay rule: the longest prefix of complete
// lines that each decode to an accept (a job with an id) or a tombstone
// (done), with tombstones resolved over the whole prefix in either
// order. It returns the pending jobs in acceptance order and the prefix
// length in bytes.
func replayV1(data []byte) (pending []AcceptedJob, good int) {
	var order []string
	jobs := map[string]AcceptedJob{}
	done := map[string]bool{}
	for {
		n := bytes.IndexByte(data[good:], '\n')
		if n < 0 {
			break
		}
		var rec struct {
			Job  *AcceptedJob `json:"job"`
			Done string       `json:"done"`
		}
		if json.Unmarshal(data[good:good+n], &rec) != nil || (rec.Job == nil && rec.Done == "") {
			break
		}
		switch {
		case rec.Job != nil && rec.Job.ID != "":
			if _, seen := jobs[rec.Job.ID]; !seen {
				order = append(order, rec.Job.ID)
			}
			jobs[rec.Job.ID] = *rec.Job
		case rec.Done != "":
			done[rec.Done] = true
		}
		good += n + 1
	}
	for _, id := range order {
		if !done[id] {
			pending = append(pending, jobs[id])
		}
	}
	return pending, good
}

// Accept records one admitted job. It must complete before the client
// is acked — it is the write-ahead half of the durability contract.
func (a *AcceptLog) Accept(job AcceptedJob) error {
	if job.ID == "" {
		return errors.New("accept: job has no id")
	}
	rec, err := json.Marshal(job)
	if err != nil {
		return err
	}
	return a.store.Put(job.ID, rec)
}

// Finish deletes a job's record: it reached a terminal state and owes
// no more work. Skipped for drain-canceled jobs, which must be
// recovered.
func (a *AcceptLog) Finish(id string) error { return a.store.Delete(id) }

// Quarantined reports how many records this journal has quarantined.
func (a *AcceptLog) Quarantined() uint64 { return a.store.Quarantined() }

// Close releases the flock.
func (a *AcceptLog) Close() error { return a.lock.Close() }
