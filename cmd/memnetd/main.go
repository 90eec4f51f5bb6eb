// Command memnetd is the simulation daemon: a long-lived HTTP service
// that accepts sweep submissions (the same JSON run lists `memnetsim
// -config` reads), executes them on a bounded worker pool with per-job
// budgets, streams progress and epoch metrics over SSE, and persists
// every result in a content-addressed store so duplicate submissions
// are cache hits.
//
// Quick start:
//
//	memnetd -addr :9732 -store /var/lib/memnetd &
//	curl -s localhost:9732/jobs -d '{"runs":[{"workload":"mixB","simtime":"400us","warmup":"100us"}]}'
//	curl -s localhost:9732/jobs/j1                # status
//	curl -N  localhost:9732/jobs/j1/stream        # SSE progress + metrics
//	curl -s  localhost:9732/jobs/j1/result        # final results
//
// SIGINT/SIGTERM drains gracefully: admission stops (/readyz goes 503),
// in-flight jobs get -drain-grace to finish, anything still running is
// then canceled (the kernel aborts within one check interval), and the
// process exits 0 on a clean drain. A second signal exits immediately.
//
// The store directory may be shared with `experiments -store` and
// `memnetsim -config … -store`: a cell any of them ran is a cache hit
// for the others.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"syscall"
	"time"

	"memnet/internal/durable"
	"memnet/internal/serve"
)

func main() {
	os.Exit(run())
}

func run() int {
	// Same rationale as memnetsim: cell construction churns tens of MB,
	// so a lazier GC trigger buys back collector cycles.
	debug.SetGCPercent(600)

	addr := flag.String("addr", ":9732", "listen address")
	storeDir := flag.String("store", "", "content-addressed result store directory (required)")
	acceptPath := flag.String("accept-journal", "",
		"write-ahead accept journal directory (default <store>/accept.wal, where a v1 journal file is imported; \"off\" disables crash recovery)")
	storeMaxBytes := flag.Int64("store-max-bytes", 0, "store size cap in bytes; LRU eviction above it (0 = unlimited)")
	storeMaxAge := flag.Duration("store-max-age", 0, "evict store entries not hit for this long (0 = keep forever)")
	authToken := flag.String("auth-token", "",
		"shared secret; when set, POST /jobs and DELETE /jobs/{id} require 'Authorization: Bearer <token>'")
	queueDepth := flag.Int("queue", serve.DefaultQueueDepth, "admission queue depth (full = 429 + Retry-After)")
	runners := flag.Int("runners", serve.DefaultRunners, "concurrent job executors")
	wallBudget := flag.Duration("wall-budget", 0, "per-job wall-clock budget (0 = unlimited)")
	eventBudget := flag.Uint64("event-budget", 0, "per-job simulated-event budget (0 = unlimited)")
	drainGrace := flag.Duration("drain-grace", 30*time.Second,
		"how long in-flight jobs may run after SIGTERM before they are canceled")
	verbose := flag.Bool("v", false, "log admissions and cell completions")
	flag.Parse()

	if *storeDir == "" {
		log.Print("memnetd: -store is required (results must survive the process)")
		return 2
	}
	if *queueDepth < 1 || *runners < 1 {
		log.Print("memnetd: -queue and -runners must be at least 1")
		return 2
	}
	if *storeMaxBytes < 0 || *storeMaxAge < 0 {
		log.Print("memnetd: -store-max-bytes and -store-max-age must not be negative")
		return 2
	}
	store, err := durable.NewStore(*storeDir)
	if err != nil {
		log.Printf("memnetd: %v", err)
		return 2
	}
	// Startup fsck: verify every entry (embedded key + payload checksum),
	// quarantine what fails, sweep temp files a crash mid-Put leaked.
	rep, err := store.Fsck()
	if err != nil {
		log.Printf("memnetd: store fsck: %v", err)
		return 2
	}
	log.Printf("memnetd: fsck: %d entries (%d bytes) ok, %d quarantined, %d stale temp file(s) removed",
		rep.Entries, rep.Bytes, rep.Quarantined, rep.TempsRemoved)
	if *storeMaxBytes > 0 || *storeMaxAge > 0 {
		evicted, err := store.GC(durable.GCConfig{MaxBytes: *storeMaxBytes, MaxAge: *storeMaxAge})
		if err != nil {
			log.Printf("memnetd: store gc: %v", err)
			return 2
		}
		if evicted > 0 {
			log.Printf("memnetd: gc: evicted %d entr(ies) at startup", evicted)
		}
	}
	var accepts *serve.AcceptLog
	var pending []serve.AcceptedJob
	if *acceptPath != "off" {
		path := *acceptPath
		if path == "" {
			path = filepath.Join(*storeDir, "accept.wal")
		}
		a, p, err := serve.OpenAcceptLog(path, nil)
		if err != nil {
			log.Printf("memnetd: %v", err)
			return 2
		}
		accepts, pending = a, p
		defer accepts.Close()
	}

	logf := func(string, ...any) {}
	if *verbose {
		logf = log.Printf
	}
	srv := serve.New(serve.Config{
		Store:         store,
		Accepts:       accepts,
		AuthToken:     *authToken,
		StoreMaxBytes: *storeMaxBytes,
		StoreMaxAge:   *storeMaxAge,
		QueueDepth:    *queueDepth,
		Runners:       *runners,
		WallBudget:    *wallBudget,
		EventBudget:   *eventBudget,
		Logf:          logf,
	})
	// Replay accepted-but-unfinished jobs before taking traffic: stored
	// cells come back as cache hits, only lost compute re-runs.
	if n := srv.Recover(pending); n > 0 {
		log.Printf("memnetd: recovered %d job(s) from the accept journal", n)
	}

	// The handler goes in before the listener opens: a SIGTERM that
	// arrives once /readyz can answer must drain, not kill the process.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Printf("memnetd: %v", err)
		return 2
	}
	hs := &http.Server{Handler: srv.Handler()}
	// The resolved address goes to stderr so scripts (and the smoke test)
	// can bind :0 and discover the port.
	log.Printf("memnetd: listening on http://%s (store %s, queue %d, runners %d)",
		ln.Addr(), *storeDir, *queueDepth, *runners)

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case sig := <-sigCh:
		log.Printf("memnetd: %v: draining (grace %s; signal again to exit now)", sig, *drainGrace)
	case err := <-serveErr:
		log.Printf("memnetd: serve: %v", err)
		return 1
	}

	// Second signal: abandon the drain.
	go func() {
		sig := <-sigCh
		log.Printf("memnetd: %v again: exiting immediately", sig)
		os.Exit(2)
	}()

	dctx, dcancel := context.WithTimeout(context.Background(), *drainGrace)
	defer dcancel()
	drainErr := srv.Drain(dctx)

	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	hs.Shutdown(sctx)

	st := srv.Stats()
	fmt.Fprintf(os.Stderr,
		"memnetd: drained: %d submitted, %d recovered, %d cells run, %d cache hits, %d rejected, %d canceled, "+
			"%d quarantined, %d evicted, %d store put errors\n",
		st.Submitted, st.Recovered, st.CellsRun, st.CacheHits, st.Rejected, st.Canceled,
		st.Quarantined, st.Evictions, st.StorePutErrors)
	if drainErr != nil && !errors.Is(drainErr, context.Canceled) {
		log.Printf("memnetd: drain deadline hit; in-flight jobs were canceled")
		return 1
	}
	return 0
}
