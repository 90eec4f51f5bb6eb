package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
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

// TestAcceptLogRoundTrip pins the journal contract: accepted jobs are
// pending until finished, come back in numeric id order, and a fully
// drained journal holds no record.
func TestAcceptLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "accept.wal")
	a, pending := openAcceptLog(t, path, nil)
	if len(pending) != 0 {
		t.Fatalf("fresh log holds %d pending jobs", len(pending))
	}
	for i, id := range []string{"j10", "j2", "j3"} {
		if err := a.Accept(acceptedJob(id, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Finish("j3"); err != nil {
		t.Fatal(err)
	}
	if err := a.Accept(AcceptedJob{Runs: acceptedJob("", 0).Runs}); err == nil {
		t.Fatal("Accept of a job with no id succeeded")
	}
	a.Close()

	a2, pending := openAcceptLog(t, path, nil)
	if len(pending) != 2 || pending[0].ID != "j2" || pending[1].ID != "j10" {
		t.Fatalf("pending = %+v, want j2 then j10", pending)
	}
	if !reflect.DeepEqual(pending[0], acceptedJob("j2", 1)) {
		t.Fatalf("j2 came back as %+v", pending[0])
	}
	if err := a2.Finish("j2"); err != nil {
		t.Fatal(err)
	}
	if err := a2.Finish("j10"); err != nil {
		t.Fatal(err)
	}
	a2.Close()

	a3, pending := openAcceptLog(t, path, nil)
	if len(pending) != 0 {
		t.Fatalf("drained log still pending: %+v", pending)
	}
	a3.Close()
	if n := journalEntries(t, path); n != 0 {
		t.Fatalf("drained journal holds %d record(s)", n)
	}
}

// journalEntries counts the record files in an accept journal directory.
func journalEntries(t *testing.T, path string) int {
	t.Helper()
	ents, err := os.ReadDir(path)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".json" {
			n++
		}
	}
	return n
}

// recordPath is where the journal at path files job id's record.
func recordPath(path, id string) string {
	sum := sha256.Sum256([]byte(id))
	return filepath.Join(path, hex.EncodeToString(sum[:])+".json")
}

// gateFS holds every temp file the accept journal creates until release
// is closed, so a test can make a job's Accept outlast its run.
type gateFS struct {
	durable.FS
	release chan struct{}
}

func (g gateFS) CreateTemp(dir, pattern string) (durable.File, error) {
	if strings.Contains(dir, "accept.wal") {
		<-g.release
	}
	return g.FS.CreateTemp(dir, pattern)
}

// TestAcceptLogTombstoneBeforeAccept pins the finish/accept ordering: a
// runner can finish a job before handleSubmit's Accept returns, and the
// finish must not delete the record until it is written, or the record
// outlives the job and the next life replays a finished submission.
func TestAcceptLogTombstoneBeforeAccept(t *testing.T) {
	dir := t.TempDir()
	store, err := durable.NewStore(dir + "/store")
	if err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "accept.wal")
	gate := gateFS{FS: durable.OSFS{}, release: make(chan struct{})}
	a, _ := openAcceptLog(t, walPath, gate)
	s := New(Config{Store: store, Accepts: a, QueueDepth: 4, Runners: 1, Logf: t.Logf})
	hs := newHTTPServer(t, s)
	acks := make(chan SubmitResponse, 1)
	go func() { acks <- submit(t, hs, tinyBody("20us", 0)) }()

	deadline := time.Now().Add(2 * time.Minute)
	for s.Stats().CellsRun == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the job never ran while its Accept was held")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // room for a premature delete
	close(gate.release)
	sr := <-acks
	if st := waitTerminal(t, hs, sr.ID, 2*time.Minute); st.State != StateDone || !sr.Durable {
		t.Fatalf("job ended %s, durable=%v", st.State, sr.Durable)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.Drain(ctx)
	a.Close()

	a2, pending := openAcceptLog(t, walPath, nil)
	defer a2.Close()
	if len(pending) != 0 {
		t.Fatalf("pending = %+v: a record outlived its finished job", pending)
	}
}

// TestAcceptLogTornTailReplay pins crash-mid-accept handling: a crash
// while a record is being written leaves a torn temp file, never a torn
// record. The records before it replay intact and the journal takes
// records again.
func TestAcceptLogTornTailReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "accept.wal")
	a, _ := openAcceptLog(t, path, nil)
	if err := a.Accept(acceptedJob("j1", 0)); err != nil {
		t.Fatal(err)
	}
	a.Close()
	if err := os.WriteFile(filepath.Join(path, ".put-123"), []byte(`{"key":"j2","su`), 0o644); err != nil {
		t.Fatal(err)
	}

	a2, pending := openAcceptLog(t, path, nil)
	if len(pending) != 1 || pending[0].ID != "j1" {
		t.Fatalf("pending after a torn accept = %+v, want exactly j1", pending)
	}
	if err := a2.Accept(acceptedJob("j3", 2)); err != nil {
		t.Fatal(err)
	}
	a2.Close()
	a3, pending := openAcceptLog(t, path, nil)
	defer a3.Close()
	if len(pending) != 2 || pending[1].ID != "j3" {
		t.Fatalf("pending after the torn accept = %+v, want j1 then j3", pending)
	}
}

// TestAcceptLogAckAfterTornAppendSurvives pins accept-failure isolation:
// a torn accept (short write under ENOSPC) fails only its own record;
// the next, successful — and therefore acked — accept replays.
func TestAcceptLogAckAfterTornAppendSurvives(t *testing.T) {
	path := filepath.Join(t.TempDir(), "accept.wal")
	ffs := durable.NewFaultFS(nil)
	a, _ := openAcceptLog(t, path, ffs)
	if err := a.Accept(acceptedJob("j1", 0)); err != nil {
		t.Fatal(err)
	}
	ffs.Fail(durable.FaultRule{Op: durable.OpWrite, Path: "accept.wal", Err: errENOSPC, Count: 1, Short: 9})
	if err := a.Accept(acceptedJob("j2", 1)); err == nil {
		t.Fatal("torn accept reported success")
	}
	if err := a.Accept(acceptedJob("j3", 2)); err != nil {
		t.Fatalf("accept after a torn write: %v", err)
	}
	a.Close()
	a2, pending := openAcceptLog(t, path, nil)
	defer a2.Close()
	if len(pending) != 2 || pending[0].ID != "j1" || pending[1].ID != "j3" {
		t.Fatalf("pending = %+v, want j1 then j3 (j3 was acked durable)", pending)
	}
}

// TestAcceptLogQuarantinesCorruptRecord pins per-record protection: one
// flipped byte in j2's record quarantines and counts j2, and j1 and j3
// still replay. (A JSON-lines journal cut everything after the first
// bad line, losing j3 too.)
func TestAcceptLogQuarantinesCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "accept.wal")
	a, _ := openAcceptLog(t, path, nil)
	for i, id := range []string{"j1", "j2", "j3"} {
		if err := a.Accept(acceptedJob(id, i)); err != nil {
			t.Fatal(err)
		}
	}
	a.Close()
	rec := recordPath(path, "j2")
	data, err := os.ReadFile(rec)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(rec, data, 0o644); err != nil {
		t.Fatal(err)
	}

	a2, pending := openAcceptLog(t, path, nil)
	defer a2.Close()
	if len(pending) != 2 || pending[0].ID != "j1" || pending[1].ID != "j3" {
		t.Fatalf("pending = %+v, want j1 and j3", pending)
	}
	if a2.Quarantined() != 1 {
		t.Fatalf("Quarantined = %d, want 1", a2.Quarantined())
	}
	if q, err := os.ReadFile(filepath.Join(path, durable.QuarantineDir, filepath.Base(rec))); err != nil || !bytes.Equal(q, data) {
		t.Fatalf("quarantine does not hold j2's record: %v", err)
	}
	store, err := durable.NewStore(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Store: store, Accepts: a2, QueueDepth: 1, Runners: 1, Logf: t.Logf})
	drainServer(t, s)
	if st := s.Stats(); st.Quarantined != 1 {
		t.Fatalf("statusz quarantined = %d, want the accept record's 1", st.Quarantined)
	}
}

// v1Jobs are the jobs testdata/accept_v1.wal holds pending: j1 and j2
// are tombstoned there (j2's tombstone before its accept).
func v1Jobs() []AcceptedJob {
	j3 := acceptedJob("j3", 1)
	j3.Runs = append(j3.Runs, exp.SpecJSON{Workload: "sp.D", Topology: "tree", Size: "big", SimTime: "50us", Warmup: "10us"})
	j4 := AcceptedJob{ID: "j4", Runs: []exp.SpecJSON{{Workload: "mixB", Topology: "star", SimTime: "30us", Warmup: "5us"}}}
	return []AcceptedJob{j3, j4}
}

// TestAcceptLogReadsV1Format pins the v1 import: testdata/accept_v1.wal
// was written by the JSON-lines accept journal. Opening it imports
// exactly its pending jobs, turns the path into a journal directory and
// removes the file; later opens read the imported records.
func TestAcceptLogReadsV1Format(t *testing.T) {
	golden, err := os.ReadFile("testdata/accept_v1.wal")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "accept.wal")
	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	for life := 0; life < 2; life++ {
		a, pending := openAcceptLog(t, path, nil)
		a.Close()
		if want := v1Jobs(); !reflect.DeepEqual(pending, want) {
			t.Fatalf("life %d: pending = %+v, want %+v", life, pending, want)
		}
	}
	if info, err := os.Stat(path); err != nil || !info.IsDir() {
		t.Fatalf("imported journal is not a directory: %v", err)
	}
	if _, err := os.Stat(path + v1Suffix); !os.IsNotExist(err) {
		t.Fatalf("the imported v1 file is still aside: %v", err)
	}
}

// TestAcceptImportFaultLosesNothing pins the import's crash safety: a
// disk fault at any step of a v1 import fails that open, and the next
// open still imports every pending job.
func TestAcceptImportFaultLosesNothing(t *testing.T) {
	golden, err := os.ReadFile("testdata/accept_v1.wal")
	if err != nil {
		t.Fatal(err)
	}
	for _, rule := range []durable.FaultRule{
		{Op: durable.OpRename, Path: "accept.wal" + v1Suffix},
		{Op: durable.OpMkdir, Path: "accept.wal"},
		{Op: durable.OpRead, Path: v1Suffix},
		{Op: durable.OpCreate, Path: "accept.wal"},
		{Op: durable.OpSyncDir, Path: "accept.wal"},
		{Op: durable.OpRemove, Path: v1Suffix},
	} {
		t.Run(string(rule.Op), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "accept.wal")
			if err := os.WriteFile(path, golden, 0o644); err != nil {
				t.Fatal(err)
			}
			ffs := durable.NewFaultFS(nil)
			rule.Err, rule.Count = errENOSPC, 1
			ffs.Fail(rule)
			if _, _, err := OpenAcceptLog(path, ffs); err == nil {
				t.Fatal("open survived the injected fault")
			}
			if ffs.Trips() != 1 {
				t.Fatalf("fault fired %d times, want 1", ffs.Trips())
			}
			a, pending := openAcceptLog(t, path, nil)
			a.Close()
			if want := v1Jobs(); !reflect.DeepEqual(pending, want) {
				t.Fatalf("pending after the faulted import = %+v, want %+v", pending, want)
			}
		})
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

// TestAcceptLogOpenFaults pins the open's failure paths: a v1 journal
// file another process holds the flock on is left alone, and an
// unreadable journal directory fails the open instead of reporting
// nothing pending.
func TestAcceptLogOpenFaults(t *testing.T) {
	path := filepath.Join(t.TempDir(), "accept.wal")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := durable.Lock(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenAcceptLog(path, nil); err == nil {
		t.Fatal("open imported a v1 journal another process holds")
	}
	l.Close()
	if info, err := os.Stat(path); err != nil || !info.Mode().IsRegular() {
		t.Fatalf("the held v1 journal was moved: %v", err)
	}
	ffs := durable.NewFaultFS(nil)
	ffs.Fail(durable.FaultRule{Op: durable.OpReadDir, Path: "accept.wal", Err: errENOSPC, Count: 1})
	if _, _, err := OpenAcceptLog(path, ffs); !errors.Is(err, errENOSPC) {
		t.Fatalf("open over an unreadable journal returned %v", err)
	}
}

// TestFinishDeleteFailureDegrades pins the delete's degradation: a
// record that cannot be deleted is counted, and its job replays in the
// next life as cache hits rather than being lost or failing.
func TestFinishDeleteFailureDegrades(t *testing.T) {
	dir := t.TempDir()
	store, err := durable.NewStore(dir + "/store")
	if err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "accept.wal")
	ffs := durable.NewFaultFS(nil)
	a, _ := openAcceptLog(t, walPath, ffs)
	s := New(Config{Store: store, Accepts: a, QueueDepth: 4, Runners: 1, Logf: t.Logf})
	hs := newHTTPServer(t, s)
	ffs.Fail(durable.FaultRule{Op: durable.OpRemove, Path: "accept.wal", Err: errENOSPC, Count: -1})
	sr := submit(t, hs, tinyBody("20us", 0))
	if st := waitTerminal(t, hs, sr.ID, 2*time.Minute); st.State != StateDone {
		t.Fatalf("job ended %s", st.State)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.Drain(ctx)
	a.Close()
	if got := s.Stats().AcceptErrors; got != 1 {
		t.Fatalf("accept_journal_errors = %d, want the failed delete's 1", got)
	}
	a2, pending := openAcceptLog(t, walPath, nil)
	defer a2.Close()
	if len(pending) != 1 || pending[0].ID != sr.ID {
		t.Fatalf("pending = %+v, want the undeleted %s", pending, sr.ID)
	}
}

// TestRecoverReenqueues is the crash-recovery acceptance test at the
// package level: jobs accepted by a "previous life" (written straight
// to the journal) are re-enqueued by Recover, cells already in the store
// come back as cache hits without re-simulation, and completed jobs'
// records are deleted so the next life owes nothing.
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

	// Both records deleted: a third life owes nothing.
	a3, pending := openAcceptLog(t, walPath, nil)
	defer a3.Close()
	if len(pending) != 0 {
		t.Fatalf("third life still owes %+v", pending)
	}
}

// TestFreshIDsSkipRecoveredIDs pins id allocation after a restart: a
// fresh submission never reuses the id of a recovered job, whatever the
// gaps between the pending ids and whatever non-generated ids sit among
// them.
func TestFreshIDsSkipRecoveredIDs(t *testing.T) {
	dir := t.TempDir()
	store, err := durable.NewStore(dir + "/store")
	if err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "accept.wal")
	a, _ := openAcceptLog(t, walPath, nil)
	for i, id := range []string{"j7", "j2", "weird-id"} {
		if err := a.Accept(acceptedJob(id, i)); err != nil {
			t.Fatal(err)
		}
	}
	a.Close()

	a2, pending := openAcceptLog(t, walPath, nil)
	defer a2.Close()
	s := New(Config{Store: store, Accepts: a2, QueueDepth: 4, Runners: 1, Logf: t.Logf})
	hs := newHTTPServer(t, s)
	drainServer(t, s)
	if n := s.Recover(pending); n != 3 {
		t.Fatalf("Recover = %d, want 3", n)
	}
	if sr := submit(t, hs, tinyBody("20us", 5)); sr.ID != "j8" {
		t.Fatalf("fresh id = %s, want j8 (past the recovered j7)", sr.ID)
	}
}

// TestRecoverTombstonesUnreplayable pins the poison-record path: an
// accept record that cannot be rebuilt is deleted, not replayed
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
// delete them as unreplayable — never re-queue them to run the
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

// TestDrainCancelStaysPending pins the delete split: a job canceled
// by the drain deadline stays in the accept journal (the next life must
// resume it), while a client DELETE deletes its record for good.
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

// TestAcceptAppendFailureDegrades pins accept-journal degradation: when the accept
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
