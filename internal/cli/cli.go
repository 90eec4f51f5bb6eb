// Package cli is the plumbing the batch commands (memnetsim and
// experiments) share: interrupt handling and exit status, CPU and heap
// profiles, distributed coordinator and worker modes, metrics export,
// and the validators for the flags they have in common. Its functions
// return errors; only a command's main exits, through Status.
package cli

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

// Exit is an error that ends a command with a chosen exit status. Msg,
// when non-empty, is printed to stderr.
type Exit struct {
	Code int
	Msg  string
}

// Error implements error.
func (e *Exit) Error() string { return e.Msg }

// Interrupted is the error of a run cut short by SIGINT or SIGTERM: the
// summary goes to stderr and the status is 130, the conventional SIGINT
// status.
func Interrupted(summary string) error { return &Exit{Code: 130, Msg: summary} }

// Status prints err to stderr and returns the process exit status for
// it: 0 for nil, the code of an *Exit, 1 for anything else. A command's
// main is `os.Exit(cli.Status(run()))`, so every defer in run — profile
// flushes, journal closes, coordinator drains — has run before the exit.
func Status(err error) int {
	if err == nil {
		return 0
	}
	code := 1
	var e *Exit
	if errors.As(err, &e) {
		code = e.Code
	}
	if msg := err.Error(); msg != "" {
		fmt.Fprintln(os.Stderr, msg)
	}
	return code
}

// InterruptContext returns a context canceled on the first SIGINT or
// SIGTERM, so in-flight simulations abort within one kernel check
// interval instead of dying mid-write: journal entries already appended
// are fsynced, and the command gets control back to flush profiles and
// print a partial-results summary before exiting non-zero. A second
// signal exits at once with status 2, the one exit outside main: by then
// the user has asked not to wait for the cleanup.
//
// The returned stop function detaches the handler; call it once the
// run completes so a late ^C behaves normally again.
func InterruptContext() (context.Context, func()) {
	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig, ok := <-ch
		if !ok {
			return
		}
		fmt.Fprintf(os.Stderr,
			"%v: canceling in-flight runs (journaled results are safe; signal again to exit now)\n", sig)
		cancel()
		if sig2, ok := <-ch; ok {
			fmt.Fprintf(os.Stderr, "%v again: exiting immediately\n", sig2)
			os.Exit(2)
		}
	}()
	return ctx, func() {
		signal.Stop(ch)
		close(ch)
		cancel()
	}
}
