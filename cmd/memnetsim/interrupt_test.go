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

	"memnet/internal/exp"
)

// TestInterruptFlushesJournal: SIGINT mid-batch must cancel in-flight
// runs promptly (kernel check, not simulation end), keep every
// already-completed run in the journal, print a partial-results summary
// naming the resume path, and exit 130. Before the interrupt plumbing,
// a ^C here lost the whole batch.
func TestInterruptFlushesJournal(t *testing.T) {
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
	journalPath := filepath.Join(dir, "journal.jsonl")

	cmd := exec.Command(bin, "-config", cfg, "-jobs", "1", "-journal", journalPath)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Wait for the fast cell to land in the journal so the interrupt has
	// something completed to preserve, then signal while a 1s-simtime
	// cell (minutes of wall time) is in flight. The running process holds
	// the journal flock, so watch the raw file rather than OpenJournal.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if b, err := os.ReadFile(journalPath); err == nil && bytes.Count(b, []byte("\n")) >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("first cell never reached the journal:\n%s", out.String())
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
	if !strings.Contains(out.String(), journalPath) {
		t.Errorf("summary does not name the resume journal:\n%s", out.String())
	}

	// The journal survived with the completed run only — it re-opens
	// cleanly (flock released, no torn tail) and resumes from it.
	j, loaded, err := exp.OpenJournal(journalPath, nil)
	if err != nil {
		t.Fatalf("journal did not survive the interrupt: %v", err)
	}
	j.Close()
	if len(loaded) != 1 {
		t.Fatalf("journal holds %d entries, want exactly the 1 completed run:\n%s", len(loaded), out.String())
	}
}
