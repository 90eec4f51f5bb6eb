package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"memnet/internal/durable"
)

// TestInterruptKeepsStoredRuns: SIGINT mid-batch must cancel in-flight
// runs promptly (kernel check, not simulation end), keep every
// already-completed run in the store, print a partial-results summary
// naming the resume path, and exit 130. Before the interrupt plumbing,
// a ^C here lost the whole batch.
func TestInterruptKeepsStoredRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess interrupt test skipped in -short mode")
	}
	bin := buildCLI(t)
	dir := t.TempDir()

	// One fast cell that will finish, then slow cells the signal lands
	// on. -jobs 1 forces that ordering.
	cfg := filepath.Join(dir, "batch.json")
	if err := os.WriteFile(cfg, []byte(`{"runs":[
		{"workload":"mixG","simtime":"20us","warmup":"5us"},
		{"workload":"mixG","simtime":"1s","warmup":"5us","wakeup_ns":15},
		{"workload":"mixG","simtime":"1s","warmup":"5us","wakeup_ns":16}
	]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	storeDir := filepath.Join(dir, "store")

	cmd := exec.Command(bin, "-config", cfg, "-jobs", "1", "-store", storeDir)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Wait for the fast cell to land in the store so the interrupt has
	// something completed to preserve, then signal while a 1s-simtime
	// cell (minutes of wall time) is in flight.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if names, _ := filepath.Glob(filepath.Join(storeDir, "*.json")); len(names) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("first cell never reached the store:\n%s", out.String())
		}
		time.Sleep(50 * time.Millisecond)
	}
	time.Sleep(300 * time.Millisecond) // let the slow cell enter its kernel
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}

	waitErr := make(chan error, 1)
	go func() { waitErr <- cmd.Wait() }()
	start := time.Now()
	var runErr error
	select {
	case runErr = <-waitErr:
	case <-time.After(30 * time.Second):
		t.Fatalf("memnetsim ignored SIGINT (in-flight cell never aborted):\n%s", out.String())
	}
	if d := time.Since(start); d > 15*time.Second {
		t.Errorf("interrupt-to-exit took %v; the kernel check is not aborting promptly", d)
	}

	var ee *exec.ExitError
	if !errors.As(runErr, &ee) || ee.ExitCode() != 130 {
		t.Errorf("exit = %v, want status 130:\n%s", runErr, out.String())
	}
	if !strings.Contains(out.String(), "interrupted:") {
		t.Errorf("no partial-results summary:\n%s", out.String())
	}
	if !strings.Contains(out.String(), storeDir) {
		t.Errorf("summary does not name the resume store:\n%s", out.String())
	}

	// The store holds the completed run only, and it verifies.
	store, err := durable.NewStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := store.Fsck()
	if err != nil {
		t.Fatalf("store did not survive the interrupt: %v", err)
	}
	if rep.Entries != 1 || rep.Quarantined != 0 {
		t.Fatalf("store after the interrupt: %+v; want exactly the 1 completed run:\n%s", rep, out.String())
	}
}
