package cli

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"memnet/internal/dist"
	"memnet/internal/exp"
)

// Coordinator serves sweep cells to distributed workers over HTTP for
// one command session (-coordinator). Each Sweep submits one batch;
// workers poll-wait between batches and drain after Close. Results and
// the journal are byte-identical to a single-process -jobs 1 run.
type Coordinator struct {
	c    *dist.Coordinator
	srv  *http.Server
	addr string
}

// StartCoordinator brings up the coordinator on addr. It takes over the
// journal: in distributed mode the coordinator restores loaded cells and
// appends fresh ones at the merge point, so the caller must not also
// journal.
func StartCoordinator(addr string, lease time.Duration, j *exp.Journal, loaded map[string]exp.Result) (*Coordinator, error) {
	c := dist.NewCoordinator(dist.Config{
		LeaseTTL: lease,
		Journal:  j,
		Loaded:   loaded,
		Logf:     logf,
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("bad -coordinator: %v", err)
	}
	// The resolved address goes to stderr so scripts binding ":0" can
	// discover the port.
	fmt.Fprintf(os.Stderr, "coordinator: listening on http://%s\n", ln.Addr())
	srv := &http.Server{Handler: c.Handler()}
	go srv.Serve(ln)
	return &Coordinator{c: c, srv: srv, addr: ln.Addr().String()}, nil
}

// Addr is the address the coordinator listens on, with the port
// resolved when addr asked for ":0".
func (d *Coordinator) Addr() string { return d.addr }

// Sweep runs specs through the workers, blocking until every cell is
// done, and returns results and cell errors aligned with specs. The
// error is the coordinator's own failure (its journal), not a cell's.
func (d *Coordinator) Sweep(specs []exp.Spec) ([]exp.Result, []error, error) {
	results, errs, err := d.c.Submit(specs).Wait(context.Background())
	if err == nil {
		err = d.c.Err()
	}
	if err != nil {
		return nil, nil, fmt.Errorf("coordinator: %v", err)
	}
	return results, errs, nil
}

// Close declares the session over — the next claim from each worker
// answers "done" — waits for the workers to drain, reports coordinator
// stats and stops the listener.
func (d *Coordinator) Close() {
	d.c.Close()
	if !d.c.DrainWorkers(0) {
		fmt.Fprintf(os.Stderr, "coordinator: drain timed out; some workers may exit with a connection error\n")
	}
	st := d.c.Stats()
	fmt.Fprintf(os.Stderr,
		"coordinator: %d cells done (%d restored, %d failed), %d leases expired, %d duplicate, %d late\n",
		st.Done, st.Restored, st.Failed, st.LeasesExpired, st.DuplicateResults, st.LateResults)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	d.srv.Shutdown(ctx)
}

// RunWorker is -worker mode: it joins the coordinator at url and runs
// cells until the session is done (the lease TTL is the coordinator's to
// grant). fallbackPath, when set, is the local salvage journal for
// results the worker finished but could not deliver. SIGINT/SIGTERM
// aborts the in-flight cell at the next kernel check; its lease expires
// and the coordinator reassigns it.
func RunWorker(url, fallbackPath string) error {
	ctx, stopSignals := InterruptContext()
	defer stopSignals()
	var fb *exp.Journal
	if fallbackPath != "" {
		j, loaded, err := exp.OpenJournal(fallbackPath, nil)
		if err != nil {
			return fmt.Errorf("bad -journal: %v", err)
		}
		if len(loaded) > 0 {
			fmt.Fprintf(os.Stderr, "worker: fallback journal already holds %d salvaged cell(s)\n", len(loaded))
		}
		fb = j
	}
	stats, err := dist.RunWorker(ctx, dist.WorkerConfig{
		Coordinator: url,
		Fallback:    fb,
		Logf:        logf,
	})
	if fb != nil {
		fb.Close()
	}
	fmt.Printf("worker: ran %d cell(s), delivered %d, salvaged %d (%d RPC retries)\n",
		stats.CellsRun, stats.CellsDelivered, stats.Salvaged, stats.RPCRetries)
	if errors.Is(err, context.Canceled) {
		return Interrupted("worker: interrupted; abandoned cell will be reassigned when its lease expires")
	}
	if err != nil {
		return fmt.Errorf("worker: %v", err)
	}
	return nil
}

// Panics counts the errors that wrap a recovered cell panic.
func Panics(errs []error) int {
	n := 0
	for _, err := range errs {
		var pe *exp.PanicError
		if errors.As(err, &pe) {
			n++
		}
	}
	return n
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}
