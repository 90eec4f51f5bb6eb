// Parallel sweep execution. The paper's figures are sweeps over
// {topology × size × workload × mechanism × policy} — dozens of fully
// independent simulations. Each cell builds its own kernel, network and
// workload (see Run), so cells share nothing and fan out cleanly across
// GOMAXPROCS goroutines.
//
// Generate runs an experiment in two passes. The collect pass dry-runs
// the generator with Runner.collecting set: every Runner.Run call
// enqueues its cell instead of simulating, so the generator's own control
// flow enumerates the sweep — there is no second copy of the cell lists
// to drift out of sync. The execute pass fans the recorded cells across
// the worker pool, which restores each cell from the attached result
// store or simulates it and stores the result, and commits results to
// the memo cache in sweep order. The final render replays the generator
// against the warm cache, so output is byte-identical to the sequential
// path regardless of job count, completion order or which cells the
// store already held.
//
// Every local sweep — Runner.Prefetch, Runner.Run on a miss, and the
// RunSpecs batch — goes through one pool, execute.
package exp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"memnet/internal/durable"
	"memnet/internal/stats"
)

// jobs resolves the runner's worker count.
func (r *Runner) jobs() int {
	if r.Jobs > 0 {
		return r.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

// Generate renders one experiment, fanning its simulation cells across
// the runner's worker pool. With Jobs == 1 it is exactly e.Run(r).
func (r *Runner) Generate(e Experiment) string {
	if r.jobs() > 1 {
		r.Prefetch(r.collect(e.Run))
	}
	return e.Run(r)
}

// collect dry-runs gen and returns every cell it would simulate, in
// first-use order, deduplicated against each other and the memo cache.
func (r *Runner) collect(gen func(*Runner) string) []Spec {
	r.collecting = true
	r.pendingKey = map[string]bool{}
	defer func() {
		r.collecting = false
		r.pending = nil
		r.pendingKey = nil
	}()
	gen(r)
	return r.pending
}

// Prefetch executes specs across the worker pool and memoizes the
// results. Cells the attached store holds are restored without
// simulating, and each fresh success is stored the moment its cell
// finishes; progress lines and cache commits happen in sweep order after
// the pool drains. Failed cells (errors, recovered panics and failed
// store writes) get placeholder results and are recorded in Failures, so
// one bad cell cannot take down the rest of the sweep.
func (r *Runner) Prefetch(specs []Spec) {
	var todo []Spec
	for _, s := range specs {
		s = r.Apply(s)
		if _, ok := r.cache[s.Key()]; !ok {
			todo = append(todo, s)
		}
	}
	if len(todo) == 0 {
		return
	}
	results, errs, hits := execute(r.ctx(), todo, r.jobs(), r.store)
	r.commit(todo, results, errs, hits)
}

// commit stores a pool's results in the memo cache in sweep order,
// with placeholder results for failed cells.
func (r *Runner) commit(specs []Spec, results []Result, errs []error, hits []bool) {
	for i, res := range results {
		k := specs[i].Key()
		if err := errs[i]; err != nil {
			r.failures = append(r.failures, CellFailure{Key: k, Err: err})
			if r.Progress != nil {
				r.Progress(fmt.Sprintf("FAILED %s: %v", k, err))
			}
			r.cache[k] = Result{Spec: specs[i], Hist: &stats.LinkHourHist{}}
			continue
		}
		r.cache[k] = res
		r.recordMetrics(k, res)
		if r.Progress == nil {
			continue
		}
		if hits[i] {
			r.Progress(fmt.Sprintf("restored %s from store", k))
		} else {
			r.Progress(fmt.Sprintf("ran %s (%.1fM events)", k, float64(res.Events)/1e6))
		}
	}
}

// RunSpecs executes a batch across jobs workers (<= 0 means
// runtime.GOMAXPROCS(0)) and returns results and errors aligned with the
// input; errs[i] is nil where cell i succeeded. Panics are contained per
// cell (see RunBudgeted). With a store, cells it holds are restored with
// the caller's canonical spec instead of simulated, and each fresh
// success is stored as its cell finishes; a failed store write is that
// cell's error. Canceling ctx aborts in-flight cells within one kernel
// check interval and fails unstarted ones with ctx's error, so an
// interrupted batch hands back promptly with every completed cell intact
// and stored.
func RunSpecs(ctx context.Context, specs []Spec, jobs int, store *durable.Store) ([]Result, []error) {
	results, errs, _ := execute(ctx, specs, jobs, store)
	return results, errs
}

// FirstErr folds RunSpecs' per-cell errors into the input-order-first
// failure, labeled with its index and key (nil when every cell
// succeeded).
func FirstErr(specs []Spec, errs []error) error {
	for i, err := range errs {
		if err != nil {
			desc := "invalid spec"
			if specs[i].Workload != nil {
				desc = specs[i].Key()
			}
			return fmt.Errorf("run %d (%s): %w", i, desc, err)
		}
	}
	return nil
}

// execute is the one cell pool behind RunSpecs and Runner.Prefetch. It
// runs specs across jobs workers (<= 0 means runtime.GOMAXPROCS(0)) and
// returns results and errors aligned with the input. Each cell is
// hermetic — own kernel, network, workload, RNG — so the only shared
// state is the output slot each worker owns and the store, which is safe
// for concurrent use (and for other processes sharing its directory).
// Cells not yet started when ctx is canceled fail with ctx's error
// instead of simulating. With a store, a cell is looked up before it
// runs (hits[i] reports a restore) and stored after it runs.
func execute(ctx context.Context, specs []Spec, jobs int, store *durable.Store) (results []Result, errs []error, hits []bool) {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(specs) {
		jobs = len(specs)
	}
	results = make([]Result, len(specs))
	errs = make([]error, len(specs))
	hits = make([]bool, len(specs))
	runOne := func(i int) {
		if errs[i] = ctx.Err(); errs[i] != nil {
			return
		}
		if store != nil {
			if hits[i], errs[i] = restore(store, specs[i], &results[i]); hits[i] || errs[i] != nil {
				return
			}
		}
		results[i], errs[i] = RunBudgeted(ctx, specs[i], Budget{})
		if errs[i] == nil && store != nil {
			errs[i] = persist(store, specs[i].Key(), results[i])
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				runOne(i)
			}
		}()
	}
	wg.Wait()
	return results, errs, hits
}

// restore looks spec up in store and, on a hit, decodes the entry into
// *res through canonicalResult. A corrupt entry (already quarantined) or
// one that does not decode as a Result is a miss, so the cell simulates
// afresh and its Put replaces the entry; any other read error fails the
// cell.
func restore(store *durable.Store, spec Spec, res *Result) (bool, error) {
	raw, ok, err := store.Get(spec.Key())
	if errors.Is(err, durable.ErrCorrupt) {
		return false, nil
	}
	if err != nil || !ok {
		return false, err
	}
	var stored Result
	if json.Unmarshal(raw, &stored) != nil {
		return false, nil
	}
	*res = canonicalResult(stored, spec)
	return true, nil
}

// persist stores one fresh result under key: the exact bytes memnetd
// stores and serves for the same cell.
func persist(store *durable.Store, key string, res Result) error {
	raw, err := json.Marshal(res)
	if err != nil {
		return err
	}
	return store.Put(key, raw)
}
