package main

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"memnet/internal/exp"
	"memnet/internal/serve"
)

func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "memnetd")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestDaemonSmoke is the real-process lifecycle check behind the
// `make daemonsmoke` CI step: start memnetd on an ephemeral port, submit
// a sweep, stream its events, verify the duplicate submission is a
// cache hit and /statusz counts both, then SIGTERM the daemon while a
// long job is in flight and assert it drains — exits cleanly, cancels
// the live job, and leaves a valid journal.
func TestDaemonSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon smoke skipped in -short mode")
	}
	bin := buildDaemon(t)
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "journal.jsonl")
	d := startDaemon(t, bin,
		"-addr", "127.0.0.1:0",
		"-store", filepath.Join(dir, "store"),
		"-journal", journalPath,
		"-runners", "1",
		"-queue", "4",
		"-drain-grace", "2s",
		"-v")

	// Health surface up and ready.
	resp, err := http.Get(d.base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz = %d", resp.StatusCode)
	}

	// Submit a metrics-armed sweep and stream it to completion.
	body := `{"runs":[{"workload":"mixG","simtime":"50us","warmup":"5us"}],"metrics_interval":"10us"}`
	id := d.submit(t, body)
	if state, _ := d.waitDone(t, id, 2*time.Minute); state != "done" {
		t.Fatalf("first job %s ended %s:\n%s", id, state, d.logText())
	}
	stream, err := http.Get(d.base + "/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	events, _ := io.ReadAll(stream.Body)
	stream.Body.Close()
	for _, want := range []string{"event: result", "event: metrics", "event: done"} {
		if !strings.Contains(string(events), want) {
			t.Errorf("stream replay missing %q", want)
		}
	}

	// Duplicate submission: served from the store without simulating.
	id2 := d.submit(t, body)
	state, hits := d.waitDone(t, id2, 30*time.Second)
	if state != "done" {
		t.Fatalf("duplicate job ended %s", state)
	}
	if hits != 1 {
		t.Fatalf("duplicate was not a cache hit:\n%s", d.logText())
	}

	// The daemon counters: two admissions, one simulated cell, one hit.
	resp, err = http.Get(d.base + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	var st serve.Stats
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Submitted != 2 || st.CellsRun != 1 || st.CacheHits != 1 {
		t.Fatalf("statusz submitted=%d cells_run=%d cache_hits=%d, want 2, 1, 1",
			st.Submitted, st.CellsRun, st.CacheHits)
	}

	// SIGTERM with a long job in flight: the daemon must drain — cancel
	// the job via the kernel check (well before the simulation could
	// finish) and exit within the grace window.
	longID := d.submit(t, `{"runs":[{"workload":"mixG","simtime":"1s","warmup":"5us"}]}`)
	time.Sleep(300 * time.Millisecond) // let it enter the kernel
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Scanner EOF doubles as process exit; Wait closes the stderr pipe,
	// so it must come after or it races the scanner for the last lines.
	start := time.Now()
	select {
	case <-d.logDone:
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not exit after SIGTERM (in-flight job %s wedged the drain):\n%s",
			longID, d.logText())
	}
	drain := time.Since(start)
	// Exit 1 (drain deadline canceled the long job) and exit 0 are both
	// clean drains; anything else is a crash.
	if err := d.cmd.Wait(); err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() > 1 {
			t.Fatalf("daemon exited badly: %v\n%s", err, d.logText())
		}
	}
	if drain > 15*time.Second {
		t.Errorf("drain took %v; cancellation did not abort the kernel promptly", drain)
	}
	if !strings.Contains(d.logText(), "draining") {
		t.Errorf("daemon log shows no drain:\n%s", d.logText())
	}

	// Journal integrity: re-opens cleanly (flock released, no torn tail)
	// and holds the one fresh result; the canceled job contributed none.
	j, loaded, err := exp.OpenJournal(journalPath, nil)
	if err != nil {
		t.Fatalf("journal did not survive the drain: %v", err)
	}
	j.Close()
	if len(loaded) != 1 {
		data, _ := os.ReadFile(journalPath)
		t.Fatalf("journal holds %d entries, want 1:\n%s", len(loaded), data)
	}
}
