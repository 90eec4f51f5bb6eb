package dist

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"memnet/internal/exp"
	"memnet/internal/fault"
	"memnet/internal/sim"
	"memnet/internal/workload"
)

// churnSpecs is the soak's cell set: several healthy cells plus one
// fault-scenario cell (fail + repair mid-run), so the merge determinism
// claim is exercised on the self-healing path too.
func churnSpecs(t *testing.T) []exp.Spec {
	t.Helper()
	wl, err := workload.ByName("mixG")
	if err != nil {
		t.Fatal(err)
	}
	var specs []exp.Spec
	for i := 0; i < 4; i++ {
		specs = append(specs, exp.Spec{
			Workload: wl,
			Mech:     exp.MechFP,
			SimTime:  20 * sim.Microsecond,
			Warmup:   5 * sim.Microsecond,
			SeedSalt: uint64(i + 1),
		})
	}
	specs = append(specs, exp.Spec{
		Workload:       wl,
		Mech:           exp.MechVWL,
		SimTime:        30 * sim.Microsecond,
		Warmup:         5 * sim.Microsecond,
		RequestTimeout: 2 * sim.Microsecond,
		Faults: fault.Scenario{
			Seed: 7,
			Events: []fault.Event{
				{At: fault.Duration(8 * sim.Microsecond), Kind: fault.LinkFail, Link: 1},
				{At: fault.Duration(14 * sim.Microsecond), Kind: fault.LinkRepair, Link: 1},
			},
		},
	})
	return specs
}

// TestChurnSoak is the acceptance backbone for the distributed path: a
// coordinator over real HTTP, three in-process workers, and seeded
// worker kills mid-sweep (a killed worker drops its completed result on
// the floor exactly as SIGKILL would, its lease expires, and the cell is
// reassigned to a replacement). The merged journal must be
// byte-identical to a single-process `-jobs 1` run of the same specs,
// for every seed. The whole soak runs under a watchdog context so a
// coordinator deadlock on lease expiry fails the test instead of hanging
// it.
func TestChurnSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("churn soak skipped in -short mode")
	}
	specs := churnSpecs(t)

	// Single-process reference journal.
	refPath := filepath.Join(t.TempDir(), "ref.jsonl")
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
	ref, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}

	for _, seed := range []int64{1, 2} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runChurnSweep(t, specs, refResults, ref, seed)
		})
	}
}

func runChurnSweep(t *testing.T, specs []exp.Spec, refResults []exp.Result, ref []byte, seed int64) {
	// Watchdog: if the coordinator ever deadlocks (lease expiry, flush,
	// Wait), this context expires and the test fails loudly.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	distPath := filepath.Join(t.TempDir(), "dist.jsonl")
	jd, loadedD, err := exp.OpenJournal(distPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(Config{
		LeaseTTL: 250 * time.Millisecond,
		Journal:  jd,
		Loaded:   loadedD,
		Logf:     t.Logf,
	})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	batch := c.Submit(specs)
	c.Close()

	// Seeded churn plan: each worker slot gets a kill quota — how many
	// cells it completes (and silently discards) before dying. A dead
	// worker is replaced until the kill budget is spent; afterwards
	// workers run to completion.
	rng := rand.New(rand.NewSource(seed))
	var kills atomic.Int64
	kills.Store(3)

	const slots = 3
	var wg sync.WaitGroup
	for slot := 0; slot < slots; slot++ {
		quota := 1 + rng.Intn(2)
		wg.Add(1)
		go func(slot, quota int) {
			defer wg.Done()
			incarnation := 0
			for {
				incarnation++
				wctx, die := context.WithCancel(ctx)
				ran := 0
				run := func(ctx context.Context, s exp.Spec) (exp.Result, error) {
					res, err := exp.Run(s)
					ran++
					if ran >= quota && kills.Add(-1) >= 0 {
						// Die between finishing the simulation and
						// delivering the result — the worst spot: the
						// work is done but the coordinator never hears.
						die()
					}
					return res, err
				}
				_, err := RunWorker(wctx, WorkerConfig{
					Coordinator:    srv.URL,
					Name:           fmt.Sprintf("w%d.%d", slot, incarnation),
					Run:            run,
					RequestTimeout: 2 * time.Second,
					Retries:        2,
					Backoff:        20 * time.Millisecond,
					Logf:           t.Logf,
				})
				die()
				if err == nil {
					return // sweep done
				}
				if ctx.Err() != nil {
					return // watchdog fired; the main goroutine reports
				}
				// Killed mid-sweep: restart as a fresh incarnation.
			}
		}(slot, quota)
	}

	results, errs, err := batch.Wait(ctx)
	if err != nil {
		t.Fatalf("watchdog or wait failure: %v", err)
	}
	wg.Wait()
	for i, e := range errs {
		if e != nil {
			t.Fatalf("distributed cell %d: %v", i, e)
		}
	}
	jd.Close()
	if err := c.Err(); err != nil {
		t.Fatalf("journal flush: %v", err)
	}

	got, err := os.ReadFile(distPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(ref) {
		t.Fatalf("seed %d: merged journal differs from single-process run\n--- single-process (%d bytes) ---\n%s--- distributed (%d bytes) ---\n%s",
			seed, len(ref), ref, len(got), got)
	}
	for i := range results {
		if results[i].Events != refResults[i].Events || results[i].Throughput != refResults[i].Throughput {
			t.Fatalf("seed %d: merged result %d differs: events %d vs %d, throughput %g vs %g",
				seed, i, results[i].Events, refResults[i].Events, results[i].Throughput, refResults[i].Throughput)
		}
	}
	st := c.Stats()
	t.Logf("seed %d: stats %+v", seed, st)
	if st.Done != len(specs) {
		t.Fatalf("seed %d: %d cells done, want %d", seed, st.Done, len(specs))
	}
	if st.LeasesExpired == 0 {
		t.Fatalf("seed %d: churn soak saw no lease expiry — kills did not bite", seed)
	}
}

// TestWorkerDrainOnCoordinatorLoss: a worker whose coordinator vanishes
// mid-delivery salvages the finished result to its local fallback
// journal and returns an error (the CLI exits non-zero), rather than
// retrying forever or dropping the work.
func TestWorkerDrainOnCoordinatorLoss(t *testing.T) {
	specs := testSpecs(t, 1)
	c := NewCoordinator(Config{LeaseTTL: time.Minute})
	srv := httptest.NewServer(c.Handler())
	c.Submit(specs)
	c.Close()

	fbPath := filepath.Join(t.TempDir(), "salvage.jsonl")
	fb, _, err := exp.OpenJournal(fbPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()

	res0, err := exp.Run(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	stats, werr := RunWorker(context.Background(), WorkerConfig{
		Coordinator: srv.URL,
		Name:        "lonely",
		Fallback:    fb,
		Run: func(_ context.Context, s exp.Spec) (exp.Result, error) {
			// The coordinator dies while the cell runs.
			srv.Close()
			return res0, nil
		},
		RequestTimeout: 200 * time.Millisecond,
		Retries:        1,
		Backoff:        10 * time.Millisecond,
		Logf:           t.Logf,
	})
	if werr == nil {
		t.Fatal("worker returned nil after losing its coordinator")
	}
	if stats.Salvaged != 1 {
		t.Fatalf("salvaged = %d, want 1; stats %+v", stats.Salvaged, stats)
	}
	// The salvage journal is a valid journal holding the finished cell.
	// Close first: the journal flock (held per open handle) would reject
	// a second opener while the worker's handle is live.
	fb.Close()
	_, loaded, err := exp.OpenJournal(fbPath, nil)
	if err != nil {
		t.Fatalf("re-opening salvage journal: %v", err)
	}
	if _, ok := loaded[specs[0].Key()]; !ok {
		t.Fatalf("salvage journal is missing %s; has %d entries", specs[0].Key(), len(loaded))
	}
}

// TestWorkerEndToEnd: the plain no-churn path — two workers over HTTP
// drain a batch and the coordinator's journal matches the sequential
// run. Also asserts worker stats add up.
func TestWorkerEndToEnd(t *testing.T) {
	specs := testSpecs(t, 3)

	refPath := filepath.Join(t.TempDir(), "ref.jsonl")
	jr, loaded, err := exp.OpenJournal(refPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, errs := exp.RunSpecs(context.Background(), specs, 1, jr, loaded); errs[0] != nil || errs[1] != nil || errs[2] != nil {
		t.Fatalf("reference errors: %v", errs)
	}
	jr.Close()

	distPath := filepath.Join(t.TempDir(), "dist.jsonl")
	jd, loadedD, err := exp.OpenJournal(distPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(Config{LeaseTTL: 2 * time.Second, Journal: jd, Loaded: loadedD, Logf: t.Logf})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	batch := c.Submit(specs)
	c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	delivered := make([]WorkerStats, 2)
	for i := range delivered {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := RunWorker(ctx, WorkerConfig{Coordinator: srv.URL, Name: fmt.Sprintf("w%d", i), Logf: t.Logf})
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
			delivered[i] = st
		}(i)
	}
	if _, errs, err := batch.Wait(ctx); err != nil {
		t.Fatal(err)
	} else {
		for i, e := range errs {
			if e != nil {
				t.Fatalf("cell %d: %v", i, e)
			}
		}
	}
	wg.Wait()
	jd.Close()

	ref, _ := os.ReadFile(refPath)
	got, _ := os.ReadFile(distPath)
	if string(ref) != string(got) {
		t.Fatalf("journal differs:\n--- sequential ---\n%s--- distributed ---\n%s", ref, got)
	}
	if n := delivered[0].CellsDelivered + delivered[1].CellsDelivered; n != len(specs) {
		t.Fatalf("workers delivered %d cells, want %d", n, len(specs))
	}
}
