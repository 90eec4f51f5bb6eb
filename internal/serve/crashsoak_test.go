package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"memnet/internal/durable"
)

// TestCrashRestartSoak is the durability acceptance test: several
// process "lives" share one store and accept journal. Each life
// recovers its predecessor's unfinished jobs, takes new submissions
// under injected disk faults (ENOSPC on store puts, failing journal
// writes, one torn temp write), and then crashes — a near-zero drain
// deadline, the in-process equivalent of SIGKILL mid-run. The final
// life must recover everything, run it to completion, leave a clean
// store (fsck), and leave a journal that owes nothing: no submission is
// ever lost, no fault ever surfaces as a 500.
func TestCrashRestartSoak(t *testing.T) {
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")
	walPath := filepath.Join(storeDir, "accept.wal") // daemon default location
	ffs := durable.NewFaultFS(nil)

	// A small spec pool: duplicates become cache hits across lives, the
	// slow spec keeps work genuinely in flight at each crash.
	body := func(i int) string {
		if i%3 == 2 {
			return fmt.Sprintf(`{"runs":[{"workload":"mixG","simtime":"10ms","warmup":"5us","wakeup_ns":%d}]}`, 900+i)
		}
		return fmt.Sprintf(`{"runs":[{"workload":"mixG","simtime":"20us","warmup":"5us","wakeup_ns":%d}]}`, 14+i%2)
	}

	accepted := map[string]bool{}
	totalRecovered := 0
	const lives = 3
	for life := 0; life < lives; life++ {
		store, err := durable.NewStoreFS(storeDir, ffs)
		if err != nil {
			t.Fatalf("life %d: %v", life, err)
		}
		if _, err := store.Fsck(); err != nil {
			t.Fatalf("life %d: fsck: %v", life, err)
		}
		a, pending, err := OpenAcceptLog(walPath, ffs)
		if err != nil {
			t.Fatalf("life %d: %v", life, err)
		}
		s := New(Config{Store: store, Accepts: a, QueueDepth: 16, Runners: 2, Logf: t.Logf})
		totalRecovered += s.Recover(pending)
		hs := httptest.NewServer(s.Handler())

		// Transient faults mid-life: full disk for result puts, a failing
		// journal put, one torn result temp write. All must degrade, not
		// 500. The result rules name the store's own temps: the journal's
		// live in its accept.wal subdirectory.
		resultTemp := filepath.Join(storeDir, ".put-")
		ffs.Fail(durable.FaultRule{Op: durable.OpWrite, Path: resultTemp, Err: errENOSPC, Count: 2})
		ffs.Fail(durable.FaultRule{Op: durable.OpWrite, Path: resultTemp, Err: errENOSPC, Count: 1, Short: 7})
		ffs.Fail(durable.FaultRule{Op: durable.OpSync, Path: "accept.wal", Err: errENOSPC, Count: 1})

		for i := 0; i < 4; i++ {
			resp, err := http.Post(hs.URL+"/jobs", "application/json",
				strings.NewReader(body(life*4+i)))
			if err != nil {
				t.Fatalf("life %d: submit: %v", life, err)
			}
			var sr SubmitResponse
			if resp.StatusCode == http.StatusAccepted {
				if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
					t.Fatal(err)
				}
				accepted[sr.ID] = true
			} else if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("life %d: submit returned %d", life, resp.StatusCode)
			}
			resp.Body.Close()
		}
		time.Sleep(50 * time.Millisecond) // let runners engage the slow jobs

		// Crash: a ~zero drain deadline cancels everything in flight
		// without deleting its record, then the flock is released.
		dctx, dcancel := context.WithTimeout(context.Background(), time.Millisecond)
		s.Drain(dctx)
		dcancel()
		hs.Close()
		a.Close()
		ffs.Clear()
		t.Logf("life %d: crashed with stats %+v", life, s.Stats())
	}
	if totalRecovered == 0 {
		t.Fatal("no life recovered anything; the crashes never caught live jobs")
	}

	// Final life: plain filesystem, recover the full backlog, run it dry.
	store, err := durable.NewStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := store.Fsck()
	if err != nil {
		t.Fatalf("final fsck: %v", err)
	}
	t.Logf("final fsck: %+v", rep)
	a, pending, err := OpenAcceptLog(walPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Store: store, Accepts: a, QueueDepth: 16, Runners: 4, Logf: t.Logf})
	recovered := s.Recover(pending)
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	// One more duplicate of a pool spec: it must be a cache hit or a
	// clean fresh run, never an error, even after all that abuse.
	sr := submit(t, hs.URL, body(0))
	accepted[sr.ID] = true

	dctx, dcancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer dcancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("final drain hit its deadline: %v (stats %+v)", err, s.Stats())
	}
	a.Close()
	t.Logf("final life: recovered %d, stats %+v", recovered, s.Stats())

	// Every job the final life owned is done — nothing failed, nothing
	// was left hanging.
	for id := range accepted {
		s.jobMu.Lock()
		j := s.jobs[id]
		s.jobMu.Unlock()
		if j == nil {
			continue // finished, its record deleted, in an earlier life
		}
		if st := j.status(false); st.State != StateDone {
			t.Errorf("job %s ended %s: %+v", id, st.State, st)
		}
	}

	// The journal owes nothing: a further life would recover zero jobs.
	a2, pending, err := OpenAcceptLog(walPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()
	if len(pending) != 0 {
		t.Fatalf("journal still owes %d job(s) after a clean drain: %+v", len(pending), pending)
	}
}
