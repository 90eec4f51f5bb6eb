package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"memnet/internal/exp"
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
// `make daemonsmoke` CI step, mirroring the distributed smoke: start
// memnetd on an ephemeral port, submit a sweep, stream its events,
// verify the duplicate submission is a cache hit, then SIGTERM the
// daemon while a long job is in flight and assert it drains — exits
// cleanly, cancels the live job, and leaves a valid journal.
func TestDaemonSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon smoke skipped in -short mode")
	}
	bin := buildDaemon(t)
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "journal.jsonl")

	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-store", filepath.Join(dir, "store"),
		"-journal", journalPath,
		"-runners", "1",
		"-queue", "4",
		"-drain-grace", "2s",
		"-v")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Scan stderr for the announced address, keeping a transcript.
	addrCh := make(chan string, 1)
	var daemonLog bytes.Buffer
	logDone := make(chan struct{})
	go func() {
		defer close(logDone)
		sc := bufio.NewScanner(stderr)
		addrRe := regexp.MustCompile(`listening on (http://\S+)`)
		for sc.Scan() {
			line := sc.Text()
			daemonLog.WriteString(line + "\n")
			if m := addrRe.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	var base string
	select {
	case base = <-addrCh:
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon never announced its address:\n%s", daemonLog.String())
	}

	submit := func(body string) string {
		t.Helper()
		resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			msg, _ := io.ReadAll(resp.Body)
			t.Fatalf("submit: %s: %s", resp.Status, msg)
		}
		var sr struct {
			ID string `json:"id"`
		}
		json.NewDecoder(resp.Body).Decode(&sr)
		return sr.ID
	}
	waitDone := func(id string, timeout time.Duration) string {
		t.Helper()
		deadline := time.Now().Add(timeout)
		for {
			resp, err := http.Get(base + "/jobs/" + id)
			if err != nil {
				t.Fatal(err)
			}
			var st struct {
				State     string `json:"state"`
				CacheHits int    `json:"cache_hits"`
			}
			json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			switch st.State {
			case "done", "failed", "canceled":
				return st.State
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck (%s)", id, st.State)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	// Health surface up and ready.
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz = %d", resp.StatusCode)
	}

	// Submit a metrics-armed sweep and stream it to completion.
	body := `{"runs":[{"workload":"mixG","simtime":"50us","warmup":"5us"}],"metrics_interval":"10us"}`
	id := submit(body)
	if state := waitDone(id, 2*time.Minute); state != "done" {
		t.Fatalf("first job %s ended %s:\n%s", id, state, daemonLog.String())
	}
	stream, err := http.Get(base + "/jobs/" + id + "/stream")
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
	id2 := submit(body)
	if state := waitDone(id2, 30*time.Second); state != "done" {
		t.Fatalf("duplicate job ended %s", state)
	}
	resp, err = http.Get(base + "/jobs/" + id2)
	if err != nil {
		t.Fatal(err)
	}
	var st2 struct {
		CacheHits int `json:"cache_hits"`
	}
	json.NewDecoder(resp.Body).Decode(&st2)
	resp.Body.Close()
	if st2.CacheHits != 1 {
		t.Fatalf("duplicate was not a cache hit:\n%s", daemonLog.String())
	}

	// SIGTERM with a long job in flight: the daemon must drain — cancel
	// the job via the kernel check (well before the simulation could
	// finish) and exit within the grace window.
	longID := submit(`{"runs":[{"workload":"mixG","simtime":"1s","warmup":"5us"}]}`)
	time.Sleep(300 * time.Millisecond) // let it enter the kernel
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- cmd.Wait() }()
	start := time.Now()
	select {
	case err := <-waitErr:
		// Exit 1 (drain deadline canceled the long job) and exit 0 are
		// both clean drains; anything else is a crash.
		if err != nil {
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() > 1 {
				t.Fatalf("daemon exited badly: %v\n%s", err, daemonLog.String())
			}
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not exit after SIGTERM (in-flight job %s wedged the drain):\n%s",
			longID, daemonLog.String())
	}
	if d := time.Since(start); d > 15*time.Second {
		t.Errorf("drain took %v; cancellation did not abort the kernel promptly", d)
	}
	<-logDone
	if !strings.Contains(daemonLog.String(), "draining") {
		t.Errorf("daemon log shows no drain:\n%s", daemonLog.String())
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
