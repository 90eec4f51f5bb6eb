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
// the worker pool, journals each one as it completes (in sweep order, see
// frontier) and commits results to the memo cache in sweep order. The
// final render replays the generator against the warm cache, so output
// is byte-identical to the sequential path regardless of job count or
// completion order.
//
// Every local sweep — Runner.Prefetch, Runner.Run on a miss, and the
// RunSpecs batch — goes through one pool, execute.
package exp

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

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
// results. Journaled cells are restored without simulating, and each
// fresh success reaches the attached journal as soon as every earlier
// cell has settled; progress lines and cache commits happen in sweep
// order after the pool drains. Failed cells (errors and recovered
// panics) get placeholder results and are recorded in Failures, so one
// bad cell cannot take down the rest of the sweep.
func (r *Runner) Prefetch(specs []Spec) {
	todo := r.uncached(specs)
	if len(todo) == 0 {
		return
	}
	results, errs, jerrs := execute(r.ctx(), todo, r.jobs(), r.journal)
	r.commit(todo, results, errs, jerrs)
}

// uncached fills specs with the runner's Settings and filters them
// against the memo cache and the attached journal (restored cells are
// consumed by key, re-keyed to the canonical spec and committed on the
// spot), returning only the cells that still need simulating — the work
// list for the pool.
func (r *Runner) uncached(specs []Spec) []Spec {
	var todo []Spec
	for _, s := range specs {
		s = r.Apply(s)
		k := s.Key()
		if _, ok := r.cache[k]; ok {
			continue
		}
		if res, ok := r.journaled[k]; ok {
			delete(r.journaled, k)
			res = canonicalResult(res, s)
			if r.Progress != nil {
				r.Progress(fmt.Sprintf("restored %s from journal", k))
			}
			r.cache[k] = res
			r.recordMetrics(k, res)
			continue
		}
		todo = append(todo, s)
	}
	return todo
}

// commit stores a pool's results in the memo cache in sweep order,
// with placeholder results for failed cells. jerrs holds each cell's
// journal-append failure, recorded right after the cell it belongs to.
func (r *Runner) commit(specs []Spec, results []Result, errs, jerrs []error) {
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
		if r.Progress != nil {
			r.Progress(fmt.Sprintf("ran %s (%.1fM events)", k, float64(res.Events)/1e6))
		}
		if jerrs[i] != nil {
			r.failures = append(r.failures, CellFailure{Key: k, Err: fmt.Errorf("journal: %w", jerrs[i])})
		}
	}
}

// RunSpecs executes a batch across jobs workers (<= 0 means
// runtime.GOMAXPROCS(0)) and returns results and errors aligned with the
// input; errs[i] is nil where cell i succeeded. Panics are contained per
// cell (see RunBudgeted). With a journal j, cells whose keys appear in
// loaded are restored (consumed by key, first slot wins, with the
// caller's canonical spec) instead of simulated, and each fresh success
// is appended in input order as soon as every earlier cell has settled;
// an append failure becomes that cell's error. Canceling ctx aborts
// in-flight cells within one kernel check interval and fails unstarted
// ones with ctx's error, so an interrupted batch hands back promptly with
// every completed cell intact — and, behind the watermark, journaled.
func RunSpecs(ctx context.Context, specs []Spec, jobs int, j *Journal, loaded map[string]Result) ([]Result, []error) {
	results := make([]Result, len(specs))
	errs := make([]error, len(specs))
	var todo []Spec
	var todoIdx []int
	for i, s := range specs {
		if len(loaded) > 0 {
			k := s.Key()
			if res, ok := loaded[k]; ok {
				delete(loaded, k)
				results[i] = canonicalResult(res, s)
				continue
			}
		}
		todo = append(todo, s)
		todoIdx = append(todoIdx, i)
	}
	fresh, ferrs, jerrs := execute(ctx, todo, jobs, j)
	for t, i := range todoIdx {
		results[i], errs[i] = fresh[t], ferrs[t]
		if jerrs[t] != nil {
			errs[i] = fmt.Errorf("journal: %w", jerrs[t])
		}
	}
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
// state is the output slot each worker owns. Cells not yet started when
// ctx is canceled fail with ctx's error instead of simulating. Every
// cell settles on a frontier over j the moment it finishes; jerrs[i] is
// cell i's journal-append failure.
func execute(ctx context.Context, specs []Spec, jobs int, j *Journal) (results []Result, errs, jerrs []error) {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(specs) {
		jobs = len(specs)
	}
	results = make([]Result, len(specs))
	errs = make([]error, len(specs))
	jerrs = make([]error, len(specs))
	front := newFrontier(j, func(i int, err error) { jerrs[i] = err })
	runOne := func(i int) {
		if errs[i] = ctx.Err(); errs[i] == nil {
			results[i], errs[i] = RunBudgeted(ctx, specs[i], Budget{})
		}
		if errs[i] != nil {
			front.Settle(i, nil)
		} else {
			front.Settle(i, &results[i])
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
	return results, errs, jerrs
}
