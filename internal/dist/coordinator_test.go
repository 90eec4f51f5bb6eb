package dist

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"memnet/internal/exp"
	"memnet/internal/sim"
	"memnet/internal/workload"
)

// fakeClock is a manually advanced clock for deterministic lease tests.
type fakeClock struct{ now time.Time }

func (f *fakeClock) Now() time.Time          { return f.now }
func (f *fakeClock) Advance(d time.Duration) { f.now = f.now.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{now: time.Unix(1000, 0)} }
func clockCfg(f *fakeClock, ttl time.Duration) Config {
	return Config{LeaseTTL: ttl, Clock: f.Now}
}

// testSpecs returns n cheap, distinct, runnable cells.
func testSpecs(t *testing.T, n int) []exp.Spec {
	t.Helper()
	wl, err := workload.ByName("mixG")
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]exp.Spec, n)
	for i := range specs {
		specs[i] = exp.Spec{
			Workload: wl,
			Mech:     exp.MechFP,
			SimTime:  20 * sim.Microsecond,
			Warmup:   5 * sim.Microsecond,
			SeedSalt: uint64(i + 1),
			// Keep unit tests about lease mechanics, not invariants.
			AuditEvery: -1,
		}
	}
	return specs
}

// fakeResult fabricates a wire result body for spec — enough for lease
// tests that never compare journal bytes.
func fakeResult(t *testing.T, spec exp.Spec) json.RawMessage {
	t.Helper()
	raw, err := json.Marshal(exp.Result{Spec: spec, Events: 1})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestLeaseExpiryReassignment: a silent worker's lease expires, the cell
// is reassigned, the original worker's completion still lands (late,
// accepted — cells are deterministic), and the new assignee's becomes an
// idempotent duplicate.
func TestLeaseExpiryReassignment(t *testing.T) {
	fc := newFakeClock()
	c := NewCoordinator(clockCfg(fc, time.Second))
	specs := testSpecs(t, 1)
	b := c.Submit(specs)
	c.Close()

	ca := c.claim("alice")
	if ca.Status != StatusCell {
		t.Fatalf("alice claim: got %q, want cell", ca.Status)
	}
	// Alice goes silent past the TTL; the cell must requeue to Bob.
	fc.Advance(time.Second + time.Millisecond)
	cb := c.claim("bob")
	if cb.Status != StatusCell || cb.ID != ca.ID {
		t.Fatalf("bob claim after expiry: got %+v, want cell %d", cb, ca.ID)
	}
	if got := c.Stats().LeasesExpired; got != 1 {
		t.Fatalf("LeasesExpired = %d, want 1", got)
	}

	// Alice finishes anyway: a worker completing a cell whose lease it
	// lost. The result is accepted and counted late.
	ra := c.result(ResultRequest{Worker: "alice", ID: ca.ID, Key: ca.Key, Result: fakeResult(t, specs[0])})
	if !ra.Accepted || ra.Duplicate {
		t.Fatalf("alice late result: got %+v, want accepted non-duplicate", ra)
	}
	if got := c.Stats().LateResults; got != 1 {
		t.Fatalf("LateResults = %d, want 1", got)
	}

	// Bob's completion after reassignment is an idempotent duplicate.
	rb := c.result(ResultRequest{Worker: "bob", ID: cb.ID, Key: cb.Key, Result: fakeResult(t, specs[0])})
	if !rb.Accepted || !rb.Duplicate {
		t.Fatalf("bob duplicate result: got %+v, want accepted duplicate", rb)
	}
	if got := c.Stats().DuplicateResults; got != 1 {
		t.Fatalf("DuplicateResults = %d, want 1", got)
	}

	results, errs, err := b.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if errs[0] != nil {
		t.Fatalf("cell error: %v", errs[0])
	}
	if results[0].Events != 1 {
		t.Fatalf("merged result lost payload: %+v", results[0])
	}
	// The sweep is closed and complete: the next claim drains workers.
	if got := c.claim("carol").Status; got != StatusDone {
		t.Fatalf("claim after completion: got %q, want done", got)
	}
}

// TestHeartbeatAtTTLBoundary: a heartbeat arriving exactly at the TTL is
// already late — the lease is expired, the renewal is rejected, and the
// cell is back in the queue. One tick earlier it renews.
func TestHeartbeatAtTTLBoundary(t *testing.T) {
	fc := newFakeClock()
	c := NewCoordinator(clockCfg(fc, time.Second))
	c.Submit(testSpecs(t, 1))

	cl := c.claim("alice")
	hb := HeartbeatRequest{Worker: "alice", ID: cl.ID, Key: cl.Key}

	// Just inside the TTL: renewed, expiry pushed out.
	fc.Advance(time.Second - time.Nanosecond)
	if got := c.heartbeat(hb); !got.OK {
		t.Fatalf("heartbeat inside TTL rejected: %+v", got)
	}
	// Exactly at the (renewed) TTL: expired, rejected, requeued.
	fc.Advance(time.Second)
	if got := c.heartbeat(hb); got.OK {
		t.Fatalf("heartbeat exactly at TTL accepted: %+v", got)
	}
	st := c.Stats()
	if st.LeasesExpired != 1 || st.Claimed != 0 {
		t.Fatalf("after boundary heartbeat: %+v, want 1 expiry and 0 claimed", st)
	}
	// The requeued cell is claimable again.
	if got := c.claim("bob"); got.Status != StatusCell {
		t.Fatalf("reclaim after boundary expiry: got %q, want cell", got.Status)
	}
}

// TestHeartbeatWrongOwner: renewals from a worker that does not hold the
// lease (or names the wrong key) must not extend it.
func TestHeartbeatWrongOwner(t *testing.T) {
	fc := newFakeClock()
	c := NewCoordinator(clockCfg(fc, time.Second))
	c.Submit(testSpecs(t, 1))
	cl := c.claim("alice")
	if got := c.heartbeat(HeartbeatRequest{Worker: "mallory", ID: cl.ID, Key: cl.Key}); got.OK {
		t.Fatal("foreign heartbeat renewed the lease")
	}
	if got := c.heartbeat(HeartbeatRequest{Worker: "alice", ID: cl.ID, Key: "bogus"}); got.OK {
		t.Fatal("mismatched-key heartbeat renewed the lease")
	}
	if got := c.heartbeat(HeartbeatRequest{Worker: "alice", ID: 99, Key: cl.Key}); got.OK {
		t.Fatal("out-of-range heartbeat renewed the lease")
	}
	// The real owner is untouched by the failed renewals.
	if got := c.heartbeat(HeartbeatRequest{Worker: "alice", ID: cl.ID, Key: cl.Key}); !got.OK {
		t.Fatalf("owner heartbeat rejected: %+v", got)
	}
}

// TestResultRejections: completions naming unknown cells or carrying
// undecodable payloads are bounced without mutating lease state, and a
// bounced torn payload can be retried successfully.
func TestResultRejections(t *testing.T) {
	fc := newFakeClock()
	c := NewCoordinator(clockCfg(fc, time.Second))
	specs := testSpecs(t, 1)
	c.Submit(specs)
	cl := c.claim("alice")

	if got := c.result(ResultRequest{Worker: "alice", ID: 5, Key: cl.Key, Error: "x"}); got.Accepted {
		t.Fatal("unknown cell id accepted")
	}
	if got := c.result(ResultRequest{Worker: "alice", ID: cl.ID, Key: "bogus", Error: "x"}); got.Accepted {
		t.Fatal("mismatched key accepted")
	}
	// Torn result body: rejected, lease intact, delivery retryable.
	if got := c.result(ResultRequest{Worker: "alice", ID: cl.ID, Key: cl.Key, Result: json.RawMessage(`{"Spec":`)}); got.Accepted {
		t.Fatal("torn result body accepted")
	}
	if st := c.Stats(); st.Claimed != 1 || st.Done != 0 {
		t.Fatalf("state mutated by rejected results: %+v", st)
	}
	if got := c.result(ResultRequest{Worker: "alice", ID: cl.ID, Key: cl.Key, Result: fakeResult(t, specs[0])}); !got.Accepted {
		t.Fatalf("retried delivery after torn payload rejected: %+v", got)
	}
}

// TestJournalSweepOrder: completions landing out of sweep order are
// journaled behind the watermark, so the journal file is byte-identical
// to a sequential `-jobs 1` run over the same specs.
func TestJournalSweepOrder(t *testing.T) {
	specs := testSpecs(t, 3)

	// Sequential reference.
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.jsonl")
	jr, loaded, err := exp.OpenJournal(refPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	refResults, refErrs := exp.RunSpecs(context.Background(), specs, 1, jr, loaded)
	for i, e := range refErrs {
		if e != nil {
			t.Fatalf("reference cell %d: %v", i, e)
		}
	}
	jr.Close()

	// Distributed: claim all three, complete in order 2, 0, 1.
	distPath := filepath.Join(dir, "dist.jsonl")
	jd, loadedD, err := exp.OpenJournal(distPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	fc := newFakeClock()
	cfg := clockCfg(fc, time.Minute)
	cfg.Journal = jd
	cfg.Loaded = loadedD
	c := NewCoordinator(cfg)
	b := c.Submit(specs)
	c.Close()

	claims := make([]ClaimResponse, 3)
	for i := range claims {
		claims[i] = c.claim("w")
		if claims[i].Status != StatusCell {
			t.Fatalf("claim %d: %+v", i, claims[i])
		}
	}
	for _, i := range []int{2, 0, 1} {
		res, err := exp.Run(specs[i])
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		ack := c.result(ResultRequest{Worker: "w", ID: claims[i].ID, Key: claims[i].Key, Result: raw})
		if !ack.Accepted {
			t.Fatalf("cell %d result rejected: %+v", i, ack)
		}
	}
	results, errs, err := b.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("merged cell %d: %v", i, errs[i])
		}
		if results[i].Events != refResults[i].Events {
			t.Fatalf("merged cell %d events %d != reference %d", i, results[i].Events, refResults[i].Events)
		}
	}
	jd.Close()
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}

	ref, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(distPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(ref) != string(got) {
		t.Fatalf("distributed journal differs from sequential:\n--- sequential ---\n%s--- distributed ---\n%s", ref, got)
	}
}

// TestJournalRestore: cells present in Loaded are marked done at Submit,
// never handed to workers, and never re-appended — mirroring journal
// resume in the sequential path.
func TestJournalRestore(t *testing.T) {
	specs := testSpecs(t, 2)
	res0, err := exp.Run(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	fc := newFakeClock()
	cfg := clockCfg(fc, time.Minute)
	cfg.Loaded = map[string]exp.Result{specs[0].Key(): res0}
	c := NewCoordinator(cfg)
	b := c.Submit(specs)
	c.Close()

	cl := c.claim("w")
	if cl.Status != StatusCell || cl.Key != specs[1].Key() {
		t.Fatalf("restored cell was handed out: %+v", cl)
	}
	if st := c.Stats(); st.Restored != 1 || st.Done != 1 {
		t.Fatalf("restore stats: %+v", st)
	}
	ack := c.result(ResultRequest{Worker: "w", ID: cl.ID, Key: cl.Key, Result: fakeResult(t, specs[1])})
	if !ack.Accepted {
		t.Fatalf("fresh cell rejected: %+v", ack)
	}
	results, errs, err := b.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("merged errors: %v %v", errs[0], errs[1])
	}
	if results[0].Events != res0.Events {
		t.Fatalf("restored result mangled: got %d events, want %d", results[0].Events, res0.Events)
	}
}

// TestDuplicateKeySlots: a batch containing the same spec twice keeps
// two slots; one execution completes both, and each fresh slot journals
// its own line — byte-identical to the sequential path running the
// duplicate twice.
func TestDuplicateKeySlots(t *testing.T) {
	base := testSpecs(t, 1)
	specs := []exp.Spec{base[0], base[0]}

	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.jsonl")
	jr, loaded, err := exp.OpenJournal(refPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, errs := exp.RunSpecs(context.Background(), specs, 1, jr, loaded); errs[0] != nil || errs[1] != nil {
		t.Fatalf("reference: %v %v", errs[0], errs[1])
	}
	jr.Close()

	distPath := filepath.Join(dir, "dist.jsonl")
	jd, loadedD, err := exp.OpenJournal(distPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	fc := newFakeClock()
	cfg := clockCfg(fc, time.Minute)
	cfg.Journal = jd
	cfg.Loaded = loadedD
	c := NewCoordinator(cfg)
	b := c.Submit(specs)
	c.Close()

	cl := c.claim("w")
	if cl.Status != StatusCell {
		t.Fatalf("claim: %+v", cl)
	}
	res, err := exp.Run(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := json.Marshal(res)
	if ack := c.result(ResultRequest{Worker: "w", ID: cl.ID, Key: cl.Key, Result: raw}); !ack.Accepted {
		t.Fatalf("result rejected: %+v", ack)
	}
	// The sibling slot completed by copy: nothing left to claim.
	if got := c.claim("w").Status; got != StatusDone {
		t.Fatalf("after completing duplicate-key cell: claim %q, want done", got)
	}
	if _, errs, err := b.Wait(context.Background()); err != nil || errs[0] != nil || errs[1] != nil {
		t.Fatalf("wait: %v %v %v", err, errs, err)
	}
	jd.Close()

	ref, _ := os.ReadFile(refPath)
	got, _ := os.ReadFile(distPath)
	if string(ref) != string(got) {
		t.Fatalf("duplicate-slot journal differs:\n--- sequential ---\n%s--- distributed ---\n%s", ref, got)
	}
}

// TestRemoteCellError: a worker-reported terminal failure marks the cell
// failed (not retried, not journaled) and surfaces as *RemoteCellError,
// while later cells still flush past it in order.
func TestRemoteCellError(t *testing.T) {
	specs := testSpecs(t, 2)
	dir := t.TempDir()
	jd, loaded, err := exp.OpenJournal(filepath.Join(dir, "j.jsonl"), nil)
	if err != nil {
		t.Fatal(err)
	}
	fc := newFakeClock()
	cfg := clockCfg(fc, time.Minute)
	cfg.Journal = jd
	cfg.Loaded = loaded
	c := NewCoordinator(cfg)
	b := c.Submit(specs)
	c.Close()

	c0 := c.claim("w")
	c1 := c.claim("w")
	if ack := c.result(ResultRequest{Worker: "w", ID: c0.ID, Key: c0.Key, Error: "cell panicked: boom"}); !ack.Accepted {
		t.Fatalf("error report rejected: %+v", ack)
	}
	if ack := c.result(ResultRequest{Worker: "w", ID: c1.ID, Key: c1.Key, Result: fakeResult(t, specs[1])}); !ack.Accepted {
		t.Fatalf("success report rejected: %+v", ack)
	}
	_, errs, err := b.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var rce *RemoteCellError
	if !errors.As(errs[0], &rce) {
		t.Fatalf("cell 0 error = %v, want *RemoteCellError", errs[0])
	}
	if errs[1] != nil {
		t.Fatalf("cell 1 error = %v", errs[1])
	}
	if st := c.Stats(); st.Failed != 1 || st.Done != 2 {
		t.Fatalf("stats after failure: %+v", st)
	}
}
