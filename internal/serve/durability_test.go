package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"memnet/internal/durable"
	"memnet/internal/exp"
)

// errENOSPC is the canonical full-disk error the fault tests inject.
var errENOSPC = syscall.ENOSPC

func openAcceptLog(t *testing.T, path string, fsys durable.FS) (*AcceptLog, []AcceptedJob) {
	t.Helper()
	a, pending, err := OpenAcceptLog(path, fsys)
	if err != nil {
		t.Fatal(err)
	}
	return a, pending
}

func acceptedJob(id string, salt int) AcceptedJob {
	return AcceptedJob{
		ID: id,
		Runs: []exp.SpecJSON{{
			Workload: "mixG", SimTime: "20us", Warmup: "5us", WakeupNS: 14 + salt,
		}},
	}
}

// TestAcceptLogRoundTrip pins the WAL contract: accepted jobs are
// pending until tombstoned, order is preserved, and a fully drained
// file compacts to empty on the next open.
func TestAcceptLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "accept.wal")
	a, pending := openAcceptLog(t, path, nil)
	if len(pending) != 0 {
		t.Fatalf("fresh log holds %d pending jobs", len(pending))
	}
	for i, id := range []string{"j1", "j2", "j3"} {
		if err := a.Accept(acceptedJob(id, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Finish("j2"); err != nil {
		t.Fatal(err)
	}
	a.Close()

	a2, pending := openAcceptLog(t, path, nil)
	if len(pending) != 2 || pending[0].ID != "j1" || pending[1].ID != "j3" {
		t.Fatalf("pending = %+v, want j1 then j3", pending)
	}
	if err := a2.Finish("j1"); err != nil {
		t.Fatal(err)
	}
	if err := a2.Finish("j3"); err != nil {
		t.Fatal(err)
	}
	a2.Close()

	// Fully drained: the file compacts to zero bytes on open.
	a3, pending := openAcceptLog(t, path, nil)
	if len(pending) != 0 {
		t.Fatalf("drained log still pending: %+v", pending)
	}
	a3.Close()
	if info, err := os.Stat(path); err != nil || info.Size() != 0 {
		t.Fatalf("drained log not compacted: size=%d err=%v", info.Size(), err)
	}
}

// TestAcceptLogTombstoneBeforeAccept pins replay resolution: a runner
// can finish a job before its accept record lands, so the tombstone may
// precede the accept line. The job must still count as finished.
func TestAcceptLogTombstoneBeforeAccept(t *testing.T) {
	path := filepath.Join(t.TempDir(), "accept.wal")
	a, _ := openAcceptLog(t, path, nil)
	if err := a.Finish("j1"); err != nil {
		t.Fatal(err)
	}
	if err := a.Accept(acceptedJob("j1", 0)); err != nil {
		t.Fatal(err)
	}
	if err := a.Accept(acceptedJob("j2", 1)); err != nil {
		t.Fatal(err)
	}
	a.Close()
	a2, pending := openAcceptLog(t, path, nil)
	defer a2.Close()
	if len(pending) != 1 || pending[0].ID != "j2" {
		t.Fatalf("pending = %+v, want exactly j2", pending)
	}
}

// TestAcceptLogTornTailReplay pins crash-mid-append handling: a torn
// final line (injected through the fs seam as a short write) is
// truncated away and everything before it replays intact.
func TestAcceptLogTornTailReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "accept.wal")
	ffs := durable.NewFaultFS(nil)
	a, _ := openAcceptLog(t, path, ffs)
	if err := a.Accept(acceptedJob("j1", 0)); err != nil {
		t.Fatal(err)
	}
	// The next append persists 9 bytes and then "crashes".
	ffs.Fail(durable.FaultRule{Op: durable.OpWrite, Path: "accept.wal", Err: errENOSPC, Count: 1, Short: 9})
	if err := a.Accept(acceptedJob("j2", 1)); err == nil {
		t.Fatal("torn append reported success")
	}
	a.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`{"job":{"`)) || bytes.Count(data, []byte("\n")) != 1 {
		t.Fatalf("disk state not one full line + torn tail:\n%s", data)
	}

	a2, pending := openAcceptLog(t, path, nil)
	if len(pending) != 1 || pending[0].ID != "j1" {
		t.Fatalf("pending after torn tail = %+v, want exactly j1", pending)
	}
	// The truncated file accepts appends again.
	if err := a2.Accept(acceptedJob("j3", 2)); err != nil {
		t.Fatal(err)
	}
	a2.Close()
	a3, pending := openAcceptLog(t, path, nil)
	defer a3.Close()
	if len(pending) != 2 || pending[1].ID != "j3" {
		t.Fatalf("pending after repair = %+v, want j1 then j3", pending)
	}
}

// TestAcceptLogAckAfterTornAppendSurvives pins the append-failure
// repair: a torn accept (short write under ENOSPC) must not glue the
// next, successful — and therefore acked — accept to its fragment,
// where the next open would truncate it away.
func TestAcceptLogAckAfterTornAppendSurvives(t *testing.T) {
	path := filepath.Join(t.TempDir(), "accept.wal")
	ffs := durable.NewFaultFS(nil)
	a, _ := openAcceptLog(t, path, ffs)
	if err := a.Accept(acceptedJob("j1", 0)); err != nil {
		t.Fatal(err)
	}
	ffs.Fail(durable.FaultRule{Op: durable.OpWrite, Path: "accept.wal", Err: errENOSPC, Count: 1, Short: 9})
	if err := a.Accept(acceptedJob("j2", 1)); err == nil {
		t.Fatal("torn append reported success")
	}
	if err := a.Accept(acceptedJob("j3", 2)); err != nil {
		t.Fatalf("append after a repaired torn write: %v", err)
	}
	a.Close()
	a2, pending := openAcceptLog(t, path, nil)
	defer a2.Close()
	if len(pending) != 2 || pending[0].ID != "j1" || pending[1].ID != "j3" {
		t.Fatalf("pending = %+v, want j1 then j3 (j3 was acked durable)", pending)
	}
}

// TestAcceptLogReadsV1Format pins the on-disk format: testdata/
// accept_v1.wal was written by the pre-durable.Log accept journal. The
// same appends must produce those exact bytes, and opening the file
// must replay the same pending set without rewriting a byte.
func TestAcceptLogReadsV1Format(t *testing.T) {
	golden, err := os.ReadFile("testdata/accept_v1.wal")
	if err != nil {
		t.Fatal(err)
	}
	j1 := AcceptedJob{ID: "j1", WallBudgetMS: 60000, EventBudget: 5000000, MetricsInterval: "10us",
		Runs: []exp.SpecJSON{{Workload: "mixA", Topology: "daisychain", Size: "small", SimTime: "100us", Warmup: "20us"}}}
	j3 := acceptedJob("j3", 1)
	j3.Runs = append(j3.Runs, exp.SpecJSON{Workload: "sp.D", Topology: "tree", Size: "big", SimTime: "50us", Warmup: "10us"})
	j4 := AcceptedJob{ID: "j4", Runs: []exp.SpecJSON{{Workload: "mixB", Topology: "star", SimTime: "30us", Warmup: "5us"}}}

	fresh := filepath.Join(t.TempDir(), "fresh.wal")
	a, _ := openAcceptLog(t, fresh, nil)
	for _, err := range []error{a.Accept(j1), a.Finish("j2"), a.Accept(acceptedJob("j2", 0)),
		a.Accept(j3), a.Finish("j1"), a.Accept(j4)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	a.Close()
	if got, _ := os.ReadFile(fresh); !bytes.Equal(got, golden) {
		t.Fatalf("accept journal bytes drifted from the v1 format:\n got %s\nwant %s", got, golden)
	}

	path := filepath.Join(t.TempDir(), "accept.wal")
	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	a2, pending := openAcceptLog(t, path, nil)
	a2.Close()
	if want := []AcceptedJob{j3, j4}; !reflect.DeepEqual(pending, want) {
		t.Fatalf("pending = %+v, want %+v", pending, want)
	}
	if a2.MaxSeenID() != 4 {
		t.Fatalf("MaxSeenID = %d, want 4", a2.MaxSeenID())
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, golden) {
		t.Fatal("opening a v1 accept journal rewrote it")
	}
}

// TestAcceptLogFlockConflict pins the single-writer lock: a second open
// of a live accept journal fails fast instead of interleaving appends.
func TestAcceptLogFlockConflict(t *testing.T) {
	path := filepath.Join(t.TempDir(), "accept.wal")
	a, _ := openAcceptLog(t, path, nil)
	defer a.Close()
	if _, _, err := OpenAcceptLog(path, nil); err == nil {
		t.Fatal("second open of a locked accept journal succeeded")
	}
}

// TestRecoverReenqueues is the crash-recovery acceptance test at the
// package level: jobs accepted by a "previous life" (written straight
// to the WAL) are re-enqueued by Recover, cells already in the store
// come back as cache hits without re-simulation, and completed jobs are
// tombstoned so the next life owes nothing.
func TestRecoverReenqueues(t *testing.T) {
	dir := t.TempDir()
	store, err := durable.NewStore(dir + "/store")
	if err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "accept.wal")

	// Previous life: two jobs accepted; the first's only cell reached the
	// store (raw marshaled result, as runJob writes it), the second's did
	// not — the daemon "died" mid-run.
	a, _ := openAcceptLog(t, walPath, nil)
	storedJob, lostJob := acceptedJob("j1", 0), acceptedJob("j2", 1)
	specs, keys, err := specsFromAccepted(storedJob)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := json.Marshal(res)
	if err := store.Put(keys[0], raw); err != nil {
		t.Fatal(err)
	}
	if err := a.Accept(storedJob); err != nil {
		t.Fatal(err)
	}
	if err := a.Accept(lostJob); err != nil {
		t.Fatal(err)
	}
	a.Close()

	// Next life: open, recover, and let the runners drain the backlog.
	a2, pending := openAcceptLog(t, walPath, nil)
	if len(pending) != 2 {
		t.Fatalf("pending = %d jobs, want 2", len(pending))
	}
	s := New(Config{Store: store, Accepts: a2, QueueDepth: 1, Runners: 1, Logf: t.Logf})
	if n := s.Recover(pending); n != 2 {
		t.Fatalf("Recover = %d, want 2", n)
	}
	for _, id := range []string{"j1", "j2"} {
		j := func() *job {
			s.jobMu.Lock()
			defer s.jobMu.Unlock()
			return s.jobs[id]
		}()
		if j == nil {
			t.Fatalf("recovered job %s not registered", id)
		}
		select {
		case <-j.done:
		case <-time.After(2 * time.Minute):
			t.Fatalf("recovered job %s never finished", id)
		}
		if st := j.status(false); st.State != StateDone {
			t.Fatalf("recovered job %s ended %s: %+v", id, st.State, st)
		}
	}
	st := s.Stats()
	if st.Recovered != 2 {
		t.Fatalf("Recovered = %d, want 2", st.Recovered)
	}
	// j1's cell was in the store: exactly one cache hit, one fresh run.
	if st.CacheHits != 1 || st.CellsRun != 1 {
		t.Fatalf("cache hits %d / cells run %d, want 1 / 1 (no duplicate simulation)", st.CacheHits, st.CellsRun)
	}
	// Fresh ids must not collide with recovered ones.
	if id := fmt.Sprintf("j%d", s.nextID.Add(1)); id != "j3" {
		t.Fatalf("next fresh id = %s, want j3", id)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.Drain(ctx)
	a2.Close()

	// Both jobs tombstoned: a third life owes nothing.
	a3, pending := openAcceptLog(t, walPath, nil)
	defer a3.Close()
	if len(pending) != 0 {
		t.Fatalf("third life still owes %+v", pending)
	}
}

// TestAcceptLogMaxSeenID pins the id floor the WAL reports: the highest
// numeric id across accepts AND tombstones, with non-conforming ids
// ignored. Tombstones must count — a non-compacted file keeps them, and
// a fresh job reusing a tombstoned id would be resolved as already done
// on the next replay.
func TestAcceptLogMaxSeenID(t *testing.T) {
	path := filepath.Join(t.TempDir(), "accept.wal")
	a, _ := openAcceptLog(t, path, nil)
	if a.MaxSeenID() != 0 {
		t.Fatalf("fresh log MaxSeenID = %d", a.MaxSeenID())
	}
	if err := a.Accept(acceptedJob("j1", 0)); err != nil {
		t.Fatal(err)
	}
	if err := a.Accept(acceptedJob("j7", 1)); err != nil {
		t.Fatal(err)
	}
	if err := a.Finish("j7"); err != nil {
		t.Fatal(err)
	}
	// A tombstone with no surviving accept record (its accept line was
	// lost to a torn tail in a previous life) still raises the floor.
	if err := a.Finish("j9"); err != nil {
		t.Fatal(err)
	}
	// Hand-edited ids never parse and never collide with generated ones.
	if err := a.Accept(acceptedJob("weird-id", 2)); err != nil {
		t.Fatal(err)
	}
	a.Close()
	a2, _ := openAcceptLog(t, path, nil)
	defer a2.Close()
	if a2.MaxSeenID() != 9 {
		t.Fatalf("MaxSeenID = %d, want 9 (tombstones included)", a2.MaxSeenID())
	}
}

// TestFreshIDsSkipTombstonedWAL is the regression test for id reuse
// against a non-compacted accept journal. Previous life: j1 pending
// (blocks compaction), j2 finished — its tombstone stays in the file.
// The next life's first fresh submission must get j3: if it reused j2,
// the stale "done j2" line would resolve the new accept record as
// already finished on the following replay and silently drop an acked
// submission.
func TestFreshIDsSkipTombstonedWAL(t *testing.T) {
	dir := t.TempDir()
	store, err := durable.NewStore(dir + "/store")
	if err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "accept.wal")
	a, _ := openAcceptLog(t, walPath, nil)
	if err := a.Accept(acceptedJob("j1", 0)); err != nil {
		t.Fatal(err)
	}
	if err := a.Accept(acceptedJob("j2", 1)); err != nil {
		t.Fatal(err)
	}
	if err := a.Finish("j2"); err != nil {
		t.Fatal(err)
	}
	a.Close() // crash with j1 pending: the file keeps j2's tombstone

	a2, pending := openAcceptLog(t, walPath, nil)
	if len(pending) != 1 || pending[0].ID != "j1" {
		t.Fatalf("pending = %+v, want exactly j1", pending)
	}
	s := New(Config{Store: store, Accepts: a2, QueueDepth: 4, Runners: 1, Logf: t.Logf})
	hs := newHTTPServer(t, s)
	if n := s.Recover(pending); n != 1 {
		t.Fatalf("Recover = %d, want 1", n)
	}
	sr := submit(t, hs, tinyBody("20us", 5))
	if sr.ID == "j2" {
		t.Fatal("fresh submission reused tombstoned id j2: its accept record would be dropped on the next replay")
	}
	if sr.ID != "j3" {
		t.Fatalf("fresh id = %s, want j3 (floor set by the tombstoned j2)", sr.ID)
	}
	if !sr.Durable {
		t.Fatal("accept append succeeded but the ack claims durable=false")
	}
	if st := waitTerminal(t, hs, sr.ID, 2*time.Minute); st.State != StateDone {
		t.Fatalf("fresh job ended %s", st.State)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.Drain(ctx)
	a2.Close()

	// Third life: every acked submission is accounted for.
	a3, pending := openAcceptLog(t, walPath, nil)
	defer a3.Close()
	if len(pending) != 0 {
		t.Fatalf("third life still owes %+v — an acked submission was lost to id reuse", pending)
	}
}

// TestRecoverTombstonesUnreplayable pins the poison-record path: an
// accept record that cannot be rebuilt is tombstoned, not replayed
// forever.
func TestRecoverTombstonesUnreplayable(t *testing.T) {
	dir := t.TempDir()
	store, err := durable.NewStore(dir + "/store")
	if err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "accept.wal")
	a, _ := openAcceptLog(t, walPath, nil)
	bad := AcceptedJob{ID: "j1", Runs: []exp.SpecJSON{{Workload: "no-such-workload"}}}
	if err := a.Accept(bad); err != nil {
		t.Fatal(err)
	}
	a.Close()

	a2, pending := openAcceptLog(t, walPath, nil)
	s := New(Config{Store: store, Accepts: a2, QueueDepth: 1, Runners: 1, Logf: t.Logf})
	if n := s.Recover(pending); n != 0 {
		t.Fatalf("Recover replayed %d unreplayable job(s)", n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.Drain(ctx)
	a2.Close()
	a3, pending := openAcceptLog(t, walPath, nil)
	defer a3.Close()
	if len(pending) != 0 {
		t.Fatalf("poison record still pending: %+v", pending)
	}
}

// TestRecoverTombstonesNowInvalidRecord is the upgrade path for the one
// range check: an accept log written by a release that admitted
// negative durations holds records that no longer pass it. Recover must
// tombstone them as unreplayable — never re-queue them to run the
// defaults — while a valid record in the same log still replays.
func TestRecoverTombstonesNowInvalidRecord(t *testing.T) {
	dir := t.TempDir()
	store, err := durable.NewStore(dir + "/store")
	if err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "accept.wal")
	a, _ := openAcceptLog(t, walPath, nil)
	for _, aj := range []AcceptedJob{
		{ID: "j1", Runs: []exp.SpecJSON{{Workload: "mixG", SimTime: "-1us"}}},
		{ID: "j2", Runs: []exp.SpecJSON{{Workload: "mixG", Warmup: "-3us"}}},
		{ID: "j3", Runs: []exp.SpecJSON{{Workload: "mixG", WakeupNS: -5}}},
		{ID: "j4", Runs: []exp.SpecJSON{{Workload: "mixG", SimTime: "10us"}}, MetricsInterval: "-5us"},
		acceptedJob("j5", 0),
	} {
		if err := a.Accept(aj); err != nil {
			t.Fatal(err)
		}
	}
	a.Close()

	a2, pending := openAcceptLog(t, walPath, nil)
	s := New(Config{Store: store, Accepts: a2, QueueDepth: 1, Runners: 1, Logf: t.Logf})
	if n := s.Recover(pending); n != 1 {
		t.Fatalf("Recover re-queued %d job(s), want only the valid j5", n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	a2.Close()
	a3, pending := openAcceptLog(t, walPath, nil)
	defer a3.Close()
	if len(pending) != 0 {
		t.Fatalf("now-invalid records still pending: %+v", pending)
	}
}

// TestDrainCancelStaysPending pins the tombstone split: a job canceled
// by the drain deadline stays in the accept journal (the next life must
// resume it), while a client DELETE tombstones its job for good.
func TestDrainCancelStaysPending(t *testing.T) {
	dir := t.TempDir()
	store, err := durable.NewStore(dir + "/store")
	if err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "accept.wal")
	a, _ := openAcceptLog(t, walPath, nil)
	s := New(Config{Store: store, Accepts: a, QueueDepth: 4, Runners: 1, Logf: t.Logf})
	hs := newHTTPServer(t, s)

	// Two long jobs: one runs (and will be drain-canceled), one queued
	// behind it gets DELETEd by the client.
	running := submit(t, hs, `{"runs":[{"workload":"mixG","simtime":"500ms","warmup":"5us"}]}`)
	deleted := submit(t, hs, `{"runs":[{"workload":"mixG","simtime":"500ms","warmup":"5us","wakeup_ns":20}]}`)
	time.Sleep(200 * time.Millisecond) // let the first enter the kernel
	req, _ := http.NewRequest(http.MethodDelete, hs+"/jobs/"+deleted.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	dctx, dcancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer dcancel()
	s.Drain(dctx) // deadline fires immediately: running job drain-canceled
	a.Close()

	a2, pending := openAcceptLog(t, walPath, nil)
	defer a2.Close()
	if len(pending) != 1 || pending[0].ID != running.ID {
		t.Fatalf("pending after drain = %+v, want exactly the drain-canceled %s", pending, running.ID)
	}
}

// TestPutENOSPCDegrades pins full-disk degradation end to end: with
// every store write failing ENOSPC, a submission still completes and
// returns its fresh result (no 500 anywhere), the failure is counted,
// and the same spec resubmitted simulates again — cache-miss behavior,
// not an error.
func TestPutENOSPCDegrades(t *testing.T) {
	ffs := durable.NewFaultFS(nil)
	store, err := durable.NewStoreFS(t.TempDir(), ffs)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Store: store, QueueDepth: 4, Runners: 1, Logf: t.Logf})
	hs := newHTTPServer(t, s)
	drainServer(t, s)
	ffs.Fail(durable.FaultRule{Op: durable.OpWrite, Path: ".put-", Err: errENOSPC, Count: -1})

	sr := submit(t, hs, tinyBody("20us", 0))
	st := waitTerminal(t, hs, sr.ID, 2*time.Minute)
	if st.State != StateDone {
		t.Fatalf("job under ENOSPC ended %s: %+v", st.State, st)
	}
	if res := fetchResult(t, hs, sr.ID); len(res) != 1 || len(res[0]) == 0 {
		t.Fatalf("fresh result not delivered under ENOSPC: %v", res)
	}
	stats := s.Stats()
	if stats.StorePutErrors == 0 {
		t.Fatal("store put failure not counted")
	}
	// Resubmission: a cache miss (nothing was stored), simulated again.
	sr2 := submit(t, hs, tinyBody("20us", 0))
	st2 := waitTerminal(t, hs, sr2.ID, 2*time.Minute)
	if st2.State != StateDone || st2.CacheHits != 0 {
		t.Fatalf("resubmission under ENOSPC: %+v, want fresh done run", st2)
	}
	if got := s.Stats().CellsRun; got != 2 {
		t.Fatalf("cells run = %d, want 2 (degraded to cache-miss)", got)
	}
}

// TestAcceptAppendFailureDegrades pins WAL degradation: when the accept
// journal cannot be written, submissions still run — durability
// downgrades to a counter, availability does not.
func TestAcceptAppendFailureDegrades(t *testing.T) {
	dir := t.TempDir()
	store, err := durable.NewStore(dir + "/store")
	if err != nil {
		t.Fatal(err)
	}
	ffs := durable.NewFaultFS(nil)
	a, _ := openAcceptLog(t, filepath.Join(dir, "accept.wal"), ffs)
	defer a.Close()
	s := New(Config{Store: store, Accepts: a, QueueDepth: 4, Runners: 1, Logf: t.Logf})
	hs := newHTTPServer(t, s)
	drainServer(t, s)
	ffs.Fail(durable.FaultRule{Op: durable.OpWrite, Path: "accept.wal", Err: errENOSPC, Count: -1})

	sr := submit(t, hs, tinyBody("20us", 0))
	// The degradation is visible to the client, not just a counter: the
	// ack carries durable=false.
	if sr.Durable {
		t.Fatal("ack claims durability with a failing accept journal")
	}
	st := waitTerminal(t, hs, sr.ID, 2*time.Minute)
	if st.State != StateDone {
		t.Fatalf("job ended %s with a failing accept journal", st.State)
	}
	if s.Stats().AcceptErrors == 0 {
		t.Fatal("accept journal failure not counted")
	}

	// With the disk healed, the same submission acks durable again (the
	// header mirrors the field for streaming clients).
	ffs.Clear()
	resp, err := http.Post(hs+"/jobs", "application/json", strings.NewReader(tinyBody("20us", 1)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr2 SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr2); err != nil {
		t.Fatal(err)
	}
	if !sr2.Durable || resp.Header.Get(DurableHeader) != "true" {
		t.Fatalf("healed submission not durable: durable=%v header=%q", sr2.Durable, resp.Header.Get(DurableHeader))
	}
	waitTerminal(t, hs, sr2.ID, 2*time.Minute)
}

// TestQuarantinedEntryResimulates pins the bit-rot path end to end: a
// corrupted store entry is quarantined on read, the job re-simulates
// and completes, and /statusz reports the quarantine — zero 500s.
func TestQuarantinedEntryResimulates(t *testing.T) {
	storeDir := t.TempDir()
	store, err := durable.NewStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Store: store, QueueDepth: 4, Runners: 1, Logf: t.Logf})
	hs := newHTTPServer(t, s)
	drainServer(t, s)

	sr := submit(t, hs, tinyBody("20us", 0))
	waitTerminal(t, hs, sr.ID, 2*time.Minute)
	fresh := fetchResult(t, hs, sr.ID)

	// Rot the stored payload without breaking its JSON.
	ents, err := os.ReadDir(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	rotted := 0
	for _, e := range ents {
		if filepath.Ext(e.Name()) != ".json" {
			continue
		}
		p := filepath.Join(storeDir, e.Name())
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, bytes.Replace(data, []byte(`"result":{"`), []byte(`"result":{" `), 1), 0o644); err != nil {
			t.Fatal(err)
		}
		rotted++
	}
	if rotted != 1 {
		t.Fatalf("rotted %d entries, want 1", rotted)
	}

	sr2 := submit(t, hs, tinyBody("20us", 0))
	st2 := waitTerminal(t, hs, sr2.ID, 2*time.Minute)
	if st2.State != StateDone || st2.CacheHits != 0 {
		t.Fatalf("rot resubmission: %+v, want fresh done run", st2)
	}
	// The re-simulated result matches the original bytes (determinism).
	if again := fetchResult(t, hs, sr2.ID); !bytes.Equal(fresh[0], again[0]) {
		t.Fatal("re-simulated result diverged from the original")
	}
	stats := s.Stats()
	if stats.Quarantined != 1 {
		t.Fatalf("statusz quarantined = %d, want 1", stats.Quarantined)
	}
	if stats.StoreScanError != "" {
		t.Fatalf("unexpected scan error: %s", stats.StoreScanError)
	}
}

// TestStatuszSurfacesScanError pins the Len-fix satellite at the HTTP
// surface: when the store directory is unreadable, /statusz reports the
// scan error instead of a phantom empty store.
func TestStatuszSurfacesScanError(t *testing.T) {
	ffs := durable.NewFaultFS(nil)
	store, err := durable.NewStoreFS(t.TempDir(), ffs)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Store: store, QueueDepth: 1, Runners: 1, Logf: t.Logf})
	hs := newHTTPServer(t, s)
	drainServer(t, s)
	ffs.Fail(durable.FaultRule{Op: durable.OpReadDir, Err: errors.New("injected EIO"), Count: -1})
	// Dirty the store so a warm scan cache cannot mask the injected
	// fault.
	if err := store.Put("k", json.RawMessage(`{"Events":1}`)); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(hs + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.StoreScanError == "" || !strings.Contains(st.StoreScanError, "injected EIO") {
		t.Fatalf("statusz hides the scan error: %+v", st)
	}
}

// TestGCAfterPut pins server-driven eviction: with a byte cap smaller
// than one entry, each fresh Put triggers a GC pass that evicts prior
// entries — but never the running job's own pinned key mid-flight.
func TestGCAfterPut(t *testing.T) {
	s, hs := newTestServer(t, func(c *Config) { c.StoreMaxBytes = 1 })
	sr1 := submit(t, hs.URL, tinyBody("20us", 0))
	if st := waitTerminal(t, hs.URL, sr1.ID, 2*time.Minute); st.State != StateDone {
		t.Fatalf("first job ended %s", st.State)
	}
	sr2 := submit(t, hs.URL, tinyBody("20us", 1))
	if st := waitTerminal(t, hs.URL, sr2.ID, 2*time.Minute); st.State != StateDone {
		t.Fatalf("second job ended %s", st.State)
	}
	// The second Put's GC pass saw the first entry unpinned and over cap.
	if evicted := s.Stats().Evictions; evicted == 0 {
		t.Fatal("byte cap below one entry evicted nothing")
	}
	// Results were still delivered despite the evictions.
	if res := fetchResult(t, hs.URL, sr2.ID); len(res) != 1 || len(res[0]) == 0 {
		t.Fatal("result lost to eviction")
	}
}

// TestAuthToken pins the shared-secret gate: mutating endpoints demand
// the bearer token, read endpoints stay open.
func TestAuthToken(t *testing.T) {
	const token = "s3cret"
	s, hs := newTestServer(t, func(c *Config) { c.AuthToken = token })

	do := func(method, path, auth string) int {
		t.Helper()
		req, err := http.NewRequest(method, hs.URL+path, strings.NewReader(tinyBody("20us", 0)))
		if err != nil {
			t.Fatal(err)
		}
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if c := do(http.MethodPost, "/jobs", ""); c != http.StatusUnauthorized {
		t.Fatalf("no token: %d, want 401", c)
	}
	if c := do(http.MethodPost, "/jobs", "Bearer wrong"); c != http.StatusUnauthorized {
		t.Fatalf("wrong token: %d, want 401", c)
	}
	if c := do(http.MethodPost, "/jobs", "Basic "+token); c != http.StatusUnauthorized {
		t.Fatalf("wrong scheme: %d, want 401", c)
	}
	if c := do(http.MethodDelete, "/jobs/j1", ""); c != http.StatusUnauthorized {
		t.Fatalf("unauthenticated DELETE: %d, want 401", c)
	}
	// Reads stay open.
	for _, path := range []string{"/healthz", "/readyz", "/statusz"} {
		if c := do(http.MethodGet, path, ""); c != http.StatusOK {
			t.Fatalf("GET %s without token: %d, want 200", path, c)
		}
	}
	if s.Stats().Unauthorized != 4 {
		t.Fatalf("Unauthorized = %d, want 4", s.Stats().Unauthorized)
	}
	// The right token works end to end.
	if c := do(http.MethodPost, "/jobs", "Bearer "+token); c != http.StatusAccepted {
		t.Fatalf("valid token: %d, want 202", c)
	}
}

// newHTTPServer wraps a Server in an httptest server without the
// drain-on-cleanup of newTestServer (these tests drain explicitly).
func newHTTPServer(t *testing.T, s *Server) string {
	t.Helper()
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return hs.URL
}

// drainServer registers a cleanup drain for servers built directly.
func drainServer(t *testing.T, s *Server) {
	t.Helper()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
}
