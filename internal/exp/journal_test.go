package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"memnet/internal/core"
	"memnet/internal/durable"
)

// TestJournalRoundTrip appends results and reloads them through
// OpenJournal.
func TestJournalRoundTrip(t *testing.T) {
	path := t.TempDir() + "/sweep.jsonl"
	j, loaded, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 0 {
		t.Fatalf("fresh journal loaded %d entries", len(loaded))
	}
	spec := tinySpec(core.PolicyNone, MechFP)
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(res); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, loaded, err = OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := loaded[spec.Key()]
	if !ok {
		t.Fatalf("journal lost the entry; loaded keys: %v", loaded)
	}
	// The spec is replaced by the caller on restore; compare the rest.
	got.Spec = res.Spec
	if !reflect.DeepEqual(got, res) {
		t.Fatalf("journal round trip diverged:\nwrote: %+v\nread:  %+v", res, got)
	}
}

// salted returns res as the record of a distinct run: its spec's seed
// salt is i.
func salted(res Result, i int) Result {
	res.Spec.SeedSalt = uint64(i)
	return res
}

// TestJournalTornTailRecovery simulates a crash mid-append: a partial
// final line must be truncated away, keeping every complete entry and an
// appendable file.
func TestJournalTornTailRecovery(t *testing.T) {
	path := t.TempDir() + "/sweep.jsonl"
	j, _, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(tinySpec(core.PolicyNone, MechFP))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(salted(res, 0)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":"torn-mid-wr`)
	f.Close()

	j2, loaded, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 1 {
		t.Fatalf("recovered %d entries, want 1", len(loaded))
	}
	// The file must be appendable again: a new entry after recovery must
	// survive the next load.
	if err := j2.Append(salted(res, 1)); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	_, loaded, err = OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, ok := loaded[salted(res, i).Spec.Key()]; !ok {
			t.Fatalf("post-recovery append lost record %d (%d entries)", i, len(loaded))
		}
	}
	data, _ := os.ReadFile(path)
	if strings.Contains(string(data), "torn-mid-wr") {
		t.Fatal("torn tail survived recovery")
	}
}

// TestJournalTornTailReopenCycle loses power during resume, repeatedly:
// each round re-opens a journal whose tail was torn mid-append,
// immediately appends a fresh entry, and is torn again before the next
// round. Every complete entry must survive every round, the recovered
// file must be appendable at once (the truncation and the append race a
// crash window), and no round may resurrect torn bytes.
func TestJournalTornTailReopenCycle(t *testing.T) {
	path := t.TempDir() + "/sweep.jsonl"
	res, err := Run(tinySpec(core.PolicyNone, MechFP))
	if err != nil {
		t.Fatal(err)
	}
	tear := func(frag string) {
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(frag); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	for round := 0; round < 3; round++ {
		j, loaded, err := OpenJournal(path, nil)
		if err != nil {
			t.Fatalf("round %d: re-open after tear: %v", round, err)
		}
		if len(loaded) != round {
			t.Fatalf("round %d: recovered %d entries, want %d", round, len(loaded), round)
		}
		// The power comes back mid-resume: append immediately after the
		// torn-tail truncation, then lose the next write too.
		if err := j.Append(salted(res, round)); err != nil {
			t.Fatalf("round %d: append after recovery: %v", round, err)
		}
		j.Close()
		tear(fmt.Sprintf(`{"key":"torn-%d","result":{"Spe`, round))
	}
	_, loaded, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		if _, ok := loaded[salted(res, round).Spec.Key()]; !ok {
			t.Fatalf("final load lost round %d's record (%d entries)", round, len(loaded))
		}
	}
	data, _ := os.ReadFile(path)
	if strings.Contains(string(data), "torn-") {
		t.Fatalf("a torn tail survived the re-open cycle:\n%s", data)
	}
}

// TestJournalAppendAfterTornWrite pins the append-failure repair on the
// sweep journal: after a torn append (a short write under ENOSPC) the
// runner keeps appending, and every append that reported success must
// restore — none may be glued to the fragment and truncated on reopen.
func TestJournalAppendAfterTornWrite(t *testing.T) {
	path := t.TempDir() + "/sweep.jsonl"
	ffs := durable.NewFaultFS(nil)
	j, _, err := OpenJournal(path, ffs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(tinySpec(core.PolicyNone, MechFP))
	if err != nil {
		t.Fatal(err)
	}
	var acked []string
	for i := 0; i < 4; i++ {
		if i == 1 {
			ffs.Fail(durable.FaultRule{Op: durable.OpWrite, Path: "sweep.jsonl", Err: syscall.ENOSPC, Count: 1, Short: 9})
		}
		rec := salted(res, i)
		if err := j.Append(rec); err == nil {
			acked = append(acked, rec.Spec.Key())
		}
	}
	j.Close()
	if ffs.Trips() != 1 || len(acked) != 3 {
		t.Fatalf("fault trips = %d, acked = %v; want 1 trip and 3 acked appends", ffs.Trips(), acked)
	}
	_, loaded, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range acked {
		if _, ok := loaded[key]; !ok {
			t.Errorf("acked entry %s did not restore (restored %d entries)", key, len(loaded))
		}
	}
}

// TestJournalReadsGoldenFormat pins the on-disk format from the read
// side. journal_v1.jsonl holds lines written when every line still
// carried its key: four cells of the retired availability sweep, run
// under a fault scenario with request timeouts, then one fault-free cell.
// The fault-free line restores under its own result's Key() (decoding
// ignores the old key field). The faulted lines would key as the healthy
// cells with the same axes, so they stay in the file unrestored and a
// resume re-simulates those cells. Opening the journal rewrites no byte.
func TestJournalReadsGoldenFormat(t *testing.T) {
	golden, err := os.ReadFile("testdata/journal_v1.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/sweep.jsonl"
	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	j, loaded, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(golden), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("fixture has %d lines, want 5", len(lines))
	}
	var healthy journalEntry
	if err := json.Unmarshal([]byte(lines[4]), &healthy); err != nil {
		t.Fatal(err)
	}
	if _, ok := loaded[healthy.Result.Spec.Key()]; !ok || len(loaded) != 1 {
		t.Fatalf("restored %d entries, want only the fault-free line under its own key", len(loaded))
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, golden) {
		t.Fatal("opening the journal rewrote it")
	}

	var specs []Spec
	for _, line := range lines[:4] {
		var e journalEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatal(err)
		}
		specs = append(specs, e.Result.Spec)
	}
	if _, errs := RunSpecs(context.Background(), specs, 2, j, loaded); FirstErr(specs, errs) != nil {
		t.Fatal(FirstErr(specs, errs))
	}
	j.Close()
	j, loaded, err = OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if len(loaded) != 5 {
		t.Fatalf("after the resume %d entries restore, want the fault-free line plus 4 re-simulated cells", len(loaded))
	}
	if got, _ := os.ReadFile(path); !bytes.HasPrefix(got, golden) {
		t.Fatal("the resume dropped or rewrote the faulted lines")
	}
}

// TestJournalResumeByteIdentical is the crash-safety acceptance test: run
// a figure sweep with a journal, truncate the journal to its first half
// (simulating a kill partway through), re-render with a fresh runner, and
// require byte-identical output with only the missing cells re-simulated.
func TestJournalResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	mk := func() *Runner {
		r := tinyRunner()
		r.Jobs = 4
		return r
	}

	// Uninterrupted reference run, journaling as it goes.
	r1 := mk()
	j1, loaded, err := OpenJournal(dir+"/ref.jsonl", nil)
	if err != nil {
		t.Fatal(err)
	}
	r1.AttachJournal(j1, loaded)
	want := renderFigures(r1)
	j1.Close()

	// Simulate a crash partway: keep only the first half of the journal
	// lines (plus a torn tail for good measure).
	data, err := os.ReadFile(dir + "/ref.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	total := 0
	for _, l := range lines {
		if strings.TrimSpace(l) != "" {
			total++
		}
	}
	if total < 4 {
		t.Fatalf("journal too small to truncate meaningfully: %d entries", total)
	}
	keep := strings.Join(lines[:total/2], "") + `{"key":"torn`
	if err := os.WriteFile(dir+"/resume.jsonl", []byte(keep), 0o644); err != nil {
		t.Fatal(err)
	}

	r2 := mk()
	fresh := 0
	restored := 0
	r2.Progress = func(s string) {
		switch {
		case strings.HasPrefix(s, "ran "):
			fresh++
		case strings.HasPrefix(s, "restored "):
			restored++
		}
	}
	j2, loaded, err := OpenJournal(dir+"/resume.jsonl", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != total/2 {
		t.Fatalf("resume loaded %d cells, want %d", len(loaded), total/2)
	}
	r2.AttachJournal(j2, loaded)
	got := renderFigures(r2)
	j2.Close()

	if got != want {
		t.Fatalf("resumed output differs from uninterrupted run:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	if restored != total/2 {
		t.Errorf("restored %d cells, want %d", restored, total/2)
	}
	if fresh != total-total/2 {
		t.Errorf("re-simulated %d cells, want %d", fresh, total-total/2)
	}
	if len(r2.Failures()) != 0 {
		t.Errorf("resume recorded failures: %v", r2.Failures())
	}
	// The resumed journal must now be complete: a third run is all cache.
	r3 := mk()
	fresh3 := 0
	r3.Progress = func(s string) {
		if strings.HasPrefix(s, "ran ") {
			fresh3++
		}
	}
	j3, loaded, err := OpenJournal(dir+"/resume.jsonl", nil)
	if err != nil {
		t.Fatal(err)
	}
	r3.AttachJournal(j3, loaded)
	if got3 := renderFigures(r3); got3 != want {
		t.Error("third (fully journaled) render diverged")
	}
	j3.Close()
	if fresh3 != 0 {
		t.Errorf("fully journaled render re-simulated %d cells", fresh3)
	}
}

// TestRunSpecsJournaled covers the batch path: a journaled batch re-run
// restores every cell and produces deeply equal results.
func TestRunSpecsJournaled(t *testing.T) {
	path := t.TempDir() + "/batch.jsonl"
	var specs []Spec
	for salt := uint64(0); salt < 3; salt++ {
		s := tinySpec(core.PolicyAware, MechVWLROO)
		s.SeedSalt = salt
		specs = append(specs, s)
	}
	j, loaded, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	first, errs := RunSpecs(context.Background(), specs, 2, j, loaded)
	for i, e := range errs {
		if e != nil {
			t.Fatalf("cell %d: %v", i, e)
		}
	}
	j.Close()

	j, loaded, err = OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(specs) {
		t.Fatalf("journal holds %d cells, want %d", len(loaded), len(specs))
	}
	second, errs := RunSpecs(context.Background(), specs, 2, j, loaded)
	j.Close()
	for i := range specs {
		if errs[i] != nil {
			t.Fatalf("restored cell %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(first[i], second[i]) {
			t.Errorf("cell %d diverged after journal restore:\nfirst:  %+v\nsecond: %+v",
				i, first[i], second[i])
		}
	}
}

// TestRunSpecsContainsPanics injects a panicking cell through the test
// seam and checks it fails alone: aligned error slot, structured
// *PanicError with a stack, and untouched neighbors.
func TestRunSpecsContainsPanics(t *testing.T) {
	orig := runImpl
	runImpl = func(ctx context.Context, s Spec, b Budget) (Result, error) {
		if s.SeedSalt == 1 {
			panic("injected cell corruption")
		}
		return runBudgeted(ctx, s, b)
	}
	defer func() { runImpl = orig }()

	var specs []Spec
	for salt := uint64(0); salt < 3; salt++ {
		s := tinySpec(core.PolicyNone, MechFP)
		s.SeedSalt = salt
		specs = append(specs, s)
	}
	results, errs := RunSpecs(context.Background(), specs, 3, nil, nil)
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

// journalKeys reads the keys of every complete line of the journal file
// at path without opening it as a Journal (which would take its lock).
func journalKeys(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, line := range strings.SplitAfter(string(data), "\n") {
		var e journalEntry
		if strings.HasSuffix(line, "\n") && json.Unmarshal([]byte(line), &e) == nil {
			keys = append(keys, e.Result.Spec.Key())
		}
	}
	return keys
}

// TestPrefetchJournalsCellsAsTheyComplete is the crash-window regression
// test for the pooled sweep: with the last of three cells held mid-run,
// the two finished cells must already be on disk — a SIGKILL at that
// moment must not lose them — and releasing the cell completes the
// journal in sweep order.
func TestPrefetchJournalsCellsAsTheyComplete(t *testing.T) {
	var specs []Spec
	for salt := uint64(0); salt < 3; salt++ {
		s := tinySpec(core.PolicyNone, MechFP)
		s.SeedSalt = salt
		specs = append(specs, s)
	}
	r := tinyRunner()
	r.Jobs = 2
	for i := range specs {
		specs[i] = r.Apply(specs[i]) // so keys match the journal's
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

	path := t.TempDir() + "/sweep.jsonl"
	j, loaded, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	r.AttachJournal(j, loaded)
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.Prefetch(specs)
	}()
	<-held
	want := []string{specs[0].Key(), specs[1].Key()}
	deadline := time.Now().Add(20 * time.Second)
	for got := journalKeys(t, path); !reflect.DeepEqual(got, want); got = journalKeys(t, path) {
		if time.Now().After(deadline) {
			close(release)
			<-done
			t.Fatalf("with the last cell still running, the journal holds %q; want the finished cells %q", got, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(release)
	<-done
	if got := journalKeys(t, path); !reflect.DeepEqual(got, append(want, specs[2].Key())) {
		t.Fatalf("journal after the sweep holds %q", got)
	}
	if len(r.Failures()) != 0 {
		t.Fatalf("failures: %v", r.Failures())
	}
}

// TestRunSpecsJournalMatchesOneWorker is the ordering regression test
// for the batch path: with cell 0 finishing last, a three-worker batch
// must write exactly the journal bytes a one-worker batch writes.
func TestRunSpecsJournalMatchesOneWorker(t *testing.T) {
	var specs []Spec
	for salt := uint64(0); salt < 4; salt++ {
		s := tinySpec(core.PolicyAware, MechVWLROO)
		s.SeedSalt = salt
		specs = append(specs, s)
	}
	dir := t.TempDir()
	write := func(name string, jobs int) []byte {
		path := dir + "/" + name
		j, loaded, err := OpenJournal(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, errs := RunSpecs(context.Background(), specs, jobs, j, loaded)
		j.Close()
		if err := FirstErr(specs, errs); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	want := write("jobs1.jsonl", 1)

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
	if got := write("jobs3.jsonl", 3); !bytes.Equal(got, want) {
		t.Fatalf("-jobs 3 journal differs from -jobs 1 (%d vs %d bytes)", len(got), len(want))
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

// TestOpenJournalFlockConflict pins the advisory-lock contract: while a
// journal is open, a second OpenJournal on the same path — even from the
// same process, since flock follows the open file description — must
// fail with a clear message instead of interleaving appends.
func TestOpenJournalFlockConflict(t *testing.T) {
	path := t.TempDir() + "/locked.jsonl"
	j, _, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, _, err := OpenJournal(path, nil); err == nil {
		t.Fatal("second OpenJournal succeeded; want flock conflict")
	} else if !strings.Contains(err.Error(), "already locked") {
		t.Fatalf("conflict error should name the lock: %v", err)
	}
	// Closing the first journal releases the lock and the path is
	// reusable immediately.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, _, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	j2.Close()
}
