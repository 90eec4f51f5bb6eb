package exp

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"memnet/internal/core"
	"memnet/internal/durable"
)

// openStore opens a store on dir over fsys (nil = the real filesystem).
func openStore(t *testing.T, dir string, fsys durable.FS) *durable.Store {
	t.Helper()
	s, err := durable.NewStoreFS(dir, fsys)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// storeEntries reads every entry file of the store at dir, by name.
func storeEntries(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(name)] = data
	}
	return out
}

// saltedSpecs returns n cells that differ only in their seed salt.
func saltedSpecs(n int, pol core.PolicyKind, mech Mech) []Spec {
	specs := make([]Spec, n)
	for i := range specs {
		specs[i] = tinySpec(pol, mech)
		specs[i].SeedSalt = uint64(i)
	}
	return specs
}

// countRuns swaps the cell runner for one that counts the cells it
// simulates, until the test ends.
func countRuns(t *testing.T) *atomic.Int32 {
	var n atomic.Int32
	orig := runImpl
	runImpl = func(ctx context.Context, s Spec, b Budget) (Result, error) {
		n.Add(1)
		return runBudgeted(ctx, s, b)
	}
	t.Cleanup(func() { runImpl = orig })
	return &n
}

// tally counts a runner's restored and freshly run cells from its
// progress lines.
func tally(r *Runner) (restored, ran *int) {
	restored, ran = new(int), new(int)
	r.Progress = func(s string) {
		switch {
		case strings.HasPrefix(s, "ran "):
			*ran++
		case strings.HasPrefix(s, "restored "):
			*restored++
		}
	}
	return restored, ran
}

// TestStoreResumeByteIdentical is the crash-safety acceptance test: run
// a figure sweep with a store, keep only half of its entries (a kill
// partway through, plus the temp file a kill mid-Put leaves), re-render
// with a fresh runner, and require byte-identical output with only the
// missing cells re-simulated. The resumed store must then hold exactly
// the uninterrupted run's entries.
func TestStoreResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	mk := func(store string) *Runner {
		r := tinyRunner()
		r.Jobs = 4
		r.AttachStore(openStore(t, filepath.Join(dir, store), nil))
		return r
	}
	want := renderFigures(mk("ref"))
	ref := storeEntries(t, filepath.Join(dir, "ref"))
	if len(ref) < 4 {
		t.Fatalf("store too small to cut meaningfully: %d entries", len(ref))
	}

	names := make([]string, 0, len(ref))
	for name := range ref {
		names = append(names, name)
	}
	sort.Strings(names)
	kept := names[:len(names)/2]
	resume := filepath.Join(dir, "resume")
	if err := os.MkdirAll(resume, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range kept {
		if err := os.WriteFile(filepath.Join(resume, name), ref[name], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(resume, ".put-torn"), []byte(`{"key":"torn`), 0o644); err != nil {
		t.Fatal(err)
	}

	r2 := mk("resume")
	restored, ran := tally(r2)
	if got := renderFigures(r2); got != want {
		t.Fatalf("resumed output differs from uninterrupted run:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	if *restored != len(kept) || *ran != len(ref)-len(kept) {
		t.Errorf("resume restored %d and ran %d cells, want %d and %d", *restored, *ran, len(kept), len(ref)-len(kept))
	}
	if len(r2.Failures()) != 0 {
		t.Errorf("resume recorded failures: %v", r2.Failures())
	}
	if got := storeEntries(t, resume); !reflect.DeepEqual(got, ref) {
		t.Errorf("resumed store holds %d entries that differ from the uninterrupted run's %d", len(got), len(ref))
	}

	// The resumed store is complete: a third run is all restores.
	r3 := mk("resume")
	restored, ran = tally(r3)
	if got := renderFigures(r3); got != want {
		t.Error("third (fully stored) render diverged")
	}
	if *ran != 0 || *restored != len(ref) {
		t.Errorf("fully stored render restored %d and ran %d cells", *restored, *ran)
	}
}

// TestRunSpecsRestoresFromStore covers the batch path: a re-run on the
// store simulates nothing and hands back deeply equal results, each
// carrying the caller's canonical spec rather than its JSON round trip.
func TestRunSpecsRestoresFromStore(t *testing.T) {
	dir := t.TempDir()
	specs := saltedSpecs(3, core.PolicyAware, MechVWLROO)
	first, errs := RunSpecs(context.Background(), specs, 2, openStore(t, dir, nil))
	if err := FirstErr(specs, errs); err != nil {
		t.Fatal(err)
	}

	runs := countRuns(t)
	second, errs := RunSpecs(context.Background(), specs, 2, openStore(t, dir, nil))
	if err := FirstErr(specs, errs); err != nil {
		t.Fatal(err)
	}
	if n := runs.Load(); n != 0 {
		t.Fatalf("re-run simulated %d cells, want all restored", n)
	}
	for i := range specs {
		if !reflect.DeepEqual(first[i], second[i]) {
			t.Errorf("cell %d diverged after restore:\nfirst:  %+v\nsecond: %+v", i, first[i], second[i])
		}
		if second[i].Spec.Workload != specs[i].Workload {
			t.Errorf("cell %d restored with a decoded workload profile, not the caller's canonical spec", i)
		}
	}
}

// TestRunSpecsStoreMatchesOneWorker is the ordering regression test for
// the batch path: with cell 0 finishing last, a three-worker batch must
// leave exactly the store a one-worker batch leaves.
func TestRunSpecsStoreMatchesOneWorker(t *testing.T) {
	specs := saltedSpecs(4, core.PolicyAware, MechVWLROO)
	dir := t.TempDir()
	write := func(name string, jobs int) map[string][]byte {
		path := filepath.Join(dir, name)
		_, errs := RunSpecs(context.Background(), specs, jobs, openStore(t, path, nil))
		if err := FirstErr(specs, errs); err != nil {
			t.Fatal(err)
		}
		return storeEntries(t, path)
	}
	want := write("jobs1", 1)
	if len(want) != len(specs) {
		t.Fatalf("store holds %d entries, want %d", len(want), len(specs))
	}

	// Cell 0 starts simulating only after every other cell has returned.
	var others atomic.Int32
	othersDone := make(chan struct{})
	orig := runImpl
	runImpl = func(ctx context.Context, s Spec, b Budget) (Result, error) {
		if s.SeedSalt == 0 {
			<-othersDone
			return runBudgeted(ctx, s, b)
		}
		res, err := runBudgeted(ctx, s, b)
		if others.Add(1) == int32(len(specs)-1) {
			close(othersDone)
		}
		return res, err
	}
	defer func() { runImpl = orig }()
	if got := write("jobs3", 3); !reflect.DeepEqual(got, want) {
		t.Fatal("-jobs 3 store differs from -jobs 1")
	}
}

// TestPrefetchStoresCellsAsTheyComplete is the crash-window regression
// test for the pooled sweep: with the last of three cells held mid-run,
// the two finished cells must already be in the store — a SIGKILL at
// that moment must not lose them.
func TestPrefetchStoresCellsAsTheyComplete(t *testing.T) {
	r := tinyRunner()
	r.Jobs = 2
	specs := saltedSpecs(3, core.PolicyNone, MechFP)
	for i := range specs {
		specs[i] = r.Apply(specs[i]) // so keys match the store's
	}
	held, release := make(chan struct{}), make(chan struct{})
	orig := runImpl
	runImpl = func(ctx context.Context, s Spec, b Budget) (Result, error) {
		if s.Key() == specs[2].Key() {
			close(held)
			<-release
		}
		return runBudgeted(ctx, s, b)
	}
	defer func() { runImpl = orig }()

	dir := t.TempDir()
	r.AttachStore(openStore(t, dir, nil))
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.Prefetch(specs)
	}()
	<-held
	probe := openStore(t, dir, nil)
	stored := func(s Spec) bool {
		_, ok, err := probe.Get(s.Key())
		return ok && err == nil
	}
	deadline := time.Now().Add(20 * time.Second)
	for !stored(specs[0]) || !stored(specs[1]) {
		if time.Now().After(deadline) {
			close(release)
			<-done
			t.Fatal("with the last cell still running, the finished cells are not in the store")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if stored(specs[2]) {
		t.Fatal("the held cell is in the store before it finished")
	}
	close(release)
	<-done
	if !stored(specs[2]) {
		t.Fatal("the last cell is not in the store after the sweep")
	}
	if len(r.Failures()) != 0 {
		t.Fatalf("failures: %v", r.Failures())
	}
}

// TestStoreFaultFailsOnlyThatCell drives the sweep's store lookups and
// writes through an injected error on read, write, fsync and rename:
// the cell whose Get or Put failed — and only that one — fails, with an
// error that names the store and keeps the cause, and a rerun on a
// healthy filesystem restores every other cell and simulates just that
// one.
func TestStoreFaultFailsOnlyThatCell(t *testing.T) {
	specs := saltedSpecs(3, core.PolicyNone, MechFP)
	for _, op := range []durable.FaultOp{durable.OpRead, durable.OpWrite, durable.OpSync, durable.OpRename} {
		t.Run(string(op), func(t *testing.T) {
			dir := t.TempDir()
			ffs := durable.NewFaultFS(nil)
			ffs.Fail(durable.FaultRule{Op: op, Err: syscall.ENOSPC, Count: 1})
			_, errs := RunSpecs(context.Background(), specs, 2, openStore(t, dir, ffs))
			if ffs.Trips() != 1 {
				t.Fatalf("fault tripped %d times, want 1", ffs.Trips())
			}
			failed := -1
			for i, err := range errs {
				if err == nil {
					continue
				}
				if failed >= 0 {
					t.Fatalf("cells %d and %d both failed: %v", failed, i, errs)
				}
				failed = i
				if !errors.Is(err, syscall.ENOSPC) || !strings.Contains(err.Error(), dir) {
					t.Errorf("cell %d error %q does not name the store %s and keep ENOSPC", i, err, dir)
				}
			}
			if failed < 0 {
				t.Fatal("no cell failed; the store failure was reported as a success")
			}

			runs := countRuns(t)
			if _, errs := RunSpecs(context.Background(), specs, 2, openStore(t, dir, nil)); FirstErr(specs, errs) != nil {
				t.Fatal(FirstErr(specs, errs))
			}
			if n := runs.Load(); n != 1 {
				t.Fatalf("healthy rerun simulated %d cells, want only the one whose store access failed", n)
			}
		})
	}
}

// TestConcurrentSweepsShareStore runs two sweeps at once on one store
// directory, each through its own Store as two processes would: both
// render exactly the output of a sweep with no store, and every entry
// they leave verifies.
func TestConcurrentSweepsShareStore(t *testing.T) {
	want := renderFigures(tinyRunner())
	dir := t.TempDir()
	outs := make([]string, 2)
	var wg sync.WaitGroup
	for i := range outs {
		r := tinyRunner()
		r.Jobs = 2
		r.AttachStore(openStore(t, dir, nil))
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = renderFigures(r)
		}()
	}
	wg.Wait()
	for i, got := range outs {
		if got != want {
			t.Errorf("sweep %d sharing the store rendered different output:\n--- want ---\n%s\n--- got ---\n%s", i, want, got)
		}
	}
	rep, err := openStore(t, dir, nil).Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Entries == 0 || rep.Quarantined != 0 || rep.TempsRemoved != 0 {
		t.Fatalf("shared store after both sweeps: %+v", rep)
	}
}

// TestCorruptEntryResimulates: an entry whose payload no longer matches
// its checksum is quarantined by the lookup, and a verified entry whose
// payload does not decode as a Result is passed over; both cells
// simulate afresh, so the results are unchanged and the store heals.
func TestCorruptEntryResimulates(t *testing.T) {
	dir := t.TempDir()
	specs := saltedSpecs(3, core.PolicyNone, MechFP)
	first, errs := RunSpecs(context.Background(), specs, 1, openStore(t, dir, nil))
	if err := FirstErr(specs, errs); err != nil {
		t.Fatal(err)
	}
	ref := storeEntries(t, dir)
	store := openStore(t, dir, nil)
	if err := store.Put(specs[1].Key(), []byte(`{"Modules":"two"}`)); err != nil {
		t.Fatal(err)
	}
	for name, data := range storeEntries(t, dir) {
		if flipped := bytes.Replace(data, []byte(`"Modules":2`), []byte(`"Modules":3`), 1); !bytes.Equal(flipped, data) {
			if err := os.WriteFile(filepath.Join(dir, name), flipped, 0o644); err != nil {
				t.Fatal(err)
			}
			break
		}
	}

	runs := countRuns(t)
	second, errs := RunSpecs(context.Background(), specs, 1, store)
	if err := FirstErr(specs, errs); err != nil {
		t.Fatal(err)
	}
	if n := runs.Load(); n != 2 {
		t.Fatalf("simulated %d cells, want the corrupt and the undecodable one", n)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("results after the bad entries re-simulated differ from the first run")
	}
	if got := storeEntries(t, dir); !reflect.DeepEqual(got, ref) {
		t.Fatal("the store did not heal to the first run's entries")
	}
	if q, _ := filepath.Glob(filepath.Join(dir, durable.QuarantineDir, "*.json")); len(q) != 1 {
		t.Fatalf("quarantine holds %d entries, want 1", len(q))
	}
}

// TestRunSpecsContainsPanics injects a panicking cell through the test
// seam and checks it fails alone: aligned error slot, structured
// *PanicError with a stack, and untouched neighbors, which are stored
// while the panicked cell is not, so a healthy rerun simulates only it.
func TestRunSpecsContainsPanics(t *testing.T) {
	dir := t.TempDir()
	orig := runImpl
	runImpl = func(ctx context.Context, s Spec, b Budget) (Result, error) {
		if s.SeedSalt == 1 {
			panic("injected cell corruption")
		}
		return runBudgeted(ctx, s, b)
	}
	specs := saltedSpecs(3, core.PolicyNone, MechFP)
	results, errs := RunSpecs(context.Background(), specs, 3, openStore(t, dir, nil))
	runImpl = orig
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("healthy cells failed: %v / %v", errs[0], errs[2])
	}
	if results[0].Throughput <= 0 || results[2].Throughput <= 0 {
		t.Fatal("healthy cells produced empty results")
	}
	var pe *PanicError
	if !errors.As(errs[1], &pe) {
		t.Fatalf("errs[1] = %v, want *PanicError", errs[1])
	}
	if pe.Value != "injected cell corruption" || !strings.Contains(pe.Stack, "RunBudgeted") {
		t.Fatalf("panic not preserved: value=%v stack has RunBudgeted=%v", pe.Value, strings.Contains(pe.Stack, "RunBudgeted"))
	}
	if n := len(storeEntries(t, dir)); n != 2 {
		t.Fatalf("store holds %d entries, want the 2 healthy cells", n)
	}

	runs := countRuns(t)
	if _, errs := RunSpecs(context.Background(), specs, 3, openStore(t, dir, nil)); FirstErr(specs, errs) != nil {
		t.Fatal(FirstErr(specs, errs))
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("healthy rerun simulated %d cells, want only the one that panicked", n)
	}
}

// TestRunCtxContainsPanics pins panic containment on the single-cell
// path the daemon and memnetsim's single run use: a panic under RunCtx comes back as a *PanicError with its stack.
func TestRunCtxContainsPanics(t *testing.T) {
	orig := runImpl
	runImpl = func(context.Context, Spec, Budget) (Result, error) { panic("injected single-cell corruption") }
	defer func() { runImpl = orig }()
	_, err := RunCtx(context.Background(), tinySpec(core.PolicyNone, MechFP))
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Value != "injected single-cell corruption" || !strings.Contains(pe.Stack, "RunBudgeted") {
		t.Fatalf("panic not preserved: value=%v stack:\n%s", pe.Value, pe.Stack)
	}
}

// TestPrefetchSurvivesPanickingCell checks the sweep path: one panicking
// cell becomes a recorded failure with a placeholder result, and the
// figure render still completes.
func TestPrefetchSurvivesPanickingCell(t *testing.T) {
	orig := runImpl
	var poisoned string
	runImpl = func(ctx context.Context, s Spec, b Budget) (Result, error) {
		if s.Key() == poisoned {
			panic("poisoned cell")
		}
		return runBudgeted(ctx, s, b)
	}
	defer func() { runImpl = orig }()

	r := tinyRunner()
	r.Jobs = 4
	e, _ := Lookup("fig5")
	specs := r.collect(e.Run)
	if len(specs) == 0 {
		t.Fatal("no cells collected")
	}
	poisoned = specs[len(specs)/2].Key()
	out := r.Generate(e)
	if len(out) < 40 {
		t.Fatalf("render did not complete: %q", out)
	}
	fails := r.Failures()
	if len(fails) != 1 || fails[0].Key != poisoned {
		t.Fatalf("failures = %+v, want exactly the poisoned cell", fails)
	}
	var pe *PanicError
	if !errors.As(fails[0].Err, &pe) {
		t.Fatalf("failure error = %v, want *PanicError", fails[0].Err)
	}
}
