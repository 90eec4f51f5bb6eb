package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"memnet/internal/serve"
)

// daemon is one life of a real memnetd process under test.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	logMu   sync.Mutex
	log     bytes.Buffer // guarded by logMu: the scanner goroutine appends while the test reads
	logDone chan struct{}
}

func (d *daemon) logText() string {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	return d.log.String()
}

func startDaemon(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })

	d := &daemon{cmd: cmd, logDone: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		defer close(d.logDone)
		sc := bufio.NewScanner(stderr)
		addrRe := regexp.MustCompile(`listening on (http://\S+)`)
		for sc.Scan() {
			line := sc.Text()
			d.logMu.Lock()
			d.log.WriteString(line + "\n")
			d.logMu.Unlock()
			if m := addrRe.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case d.base = <-addrCh:
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon never announced its address:\n%s", d.logText())
	}
	return d
}

func (d *daemon) submit(t *testing.T, body string) string {
	t.Helper()
	resp, err := http.Post(d.base+"/jobs", "application/json", strings.NewReader(body))
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

func (d *daemon) waitDone(t *testing.T, id string, timeout time.Duration) (state string, cacheHits int) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(d.base + "/jobs/" + id)
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
			return st.State, st.CacheHits
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck (%s):\n%s", id, st.State, d.logText())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func (d *daemon) result(t *testing.T, id string) []json.RawMessage {
	t.Helper()
	resp, err := http.Get(d.base + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result %s: %s", id, resp.Status)
	}
	var out struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Results
}

// TestDaemonRestartSmoke is the crash-recovery check behind the
// `make daemonrestartsmoke` CI step: a real memnetd is SIGKILLed with
// one job mid-kernel and one still queued, then restarted on the same
// store. The second life must replay both from the accept journal and
// run them to completion under their original IDs, serve the first
// life's stored result as a byte-identical cache hit (no duplicate
// simulation), and leave an accept journal that owes nothing.
func TestDaemonRestartSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon restart smoke skipped in -short mode")
	}
	bin := buildDaemon(t)
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")
	args := []string{
		"-addr", "127.0.0.1:0",
		"-store", storeDir,
		"-runners", "1",
		"-queue", "4",
		"-drain-grace", "10s",
		"-v",
	}

	// Life 1: one quick job to completion, then a slow job that will be
	// mid-kernel at the kill with a third queued behind it.
	d1 := startDaemon(t, bin, args...)
	quickBody := `{"runs":[{"workload":"mixG","simtime":"50us","warmup":"5us"}]}`
	quickID := d1.submit(t, quickBody)
	if state, _ := d1.waitDone(t, quickID, 2*time.Minute); state != "done" {
		t.Fatalf("quick job ended %s:\n%s", state, d1.logText())
	}
	quickRes := d1.result(t, quickID)

	slowID := d1.submit(t, `{"runs":[{"workload":"mixG","simtime":"20ms","warmup":"5us","wakeup_ns":20}]}`)
	queuedID := d1.submit(t, `{"runs":[{"workload":"mixG","simtime":"10ms","warmup":"5us","wakeup_ns":30}]}`)
	time.Sleep(500 * time.Millisecond) // the slow job is now inside the kernel

	// SIGKILL: no drain, no cleanup, no flock release beyond the OS's.
	// The scanner must hit EOF before Wait — Wait closes the pipe and
	// would race it for the final lines.
	if err := d1.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-d1.logDone
	d1.cmd.Wait()

	// Life 2: same store, same (default) accept journal.
	d2 := startDaemon(t, bin, args...)
	if !strings.Contains(d2.logText(), "recovered 2 job(s)") {
		t.Fatalf("second life did not recover the killed jobs:\n%s", d2.logText())
	}
	// Both interrupted jobs finish under their original IDs.
	for _, id := range []string{slowID, queuedID} {
		if state, _ := d2.waitDone(t, id, 5*time.Minute); state != "done" {
			t.Fatalf("recovered job %s ended %s:\n%s", id, state, d2.logText())
		}
	}
	// The first life's completed work is still served from the store,
	// byte-identical — the kill lost in-flight compute, not results.
	dupID := d2.submit(t, quickBody)
	if _, hits := d2.waitDone(t, dupID, 2*time.Minute); hits != 1 {
		t.Fatalf("stored result did not survive the kill (cache hits = %d):\n%s", hits, d2.logText())
	}
	dupRes := d2.result(t, dupID)
	if len(dupRes) != 1 || len(quickRes) != 1 || !bytes.Equal(dupRes[0], quickRes[0]) {
		t.Fatal("cached result across restart is not byte-identical")
	}
	// Fresh IDs continue past the recovered ones — no collision.
	if dupID == quickID || dupID == slowID || dupID == queuedID {
		t.Fatalf("fresh id %s collides with a first-life id", dupID)
	}

	// Clean shutdown of the second life, then audit its drained line:
	// exactly the two recovered cells simulated, the duplicate was a hit.
	if err := d2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Scanner EOF doubles as process exit (the pipe's write end closes
	// with the process); Wait must come after so it cannot race the
	// scanner for the drained-stats tail.
	select {
	case <-d2.logDone:
	case <-time.After(30 * time.Second):
		t.Fatalf("second life did not exit after SIGTERM:\n%s", d2.logText())
	}
	d2.cmd.Wait()
	drained := regexp.MustCompile(`drained: .*`).FindString(d2.logText())
	if !strings.Contains(drained, "2 recovered") ||
		!strings.Contains(drained, "2 cells run") ||
		!strings.Contains(drained, "1 cache hits") {
		t.Fatalf("second life stats show duplicate simulation or lost recovery: %q", drained)
	}

	// The accept journal owes nothing: a third open finds zero pending.
	wal, pending, err := serve.OpenAcceptLog(filepath.Join(storeDir, "accept.wal"), nil)
	if err != nil {
		t.Fatal(err)
	}
	wal.Close()
	if len(pending) != 0 {
		t.Fatalf("accept journal still owes %d job(s): %+v", len(pending), pending)
	}
	t.Logf("restart smoke ok: %s", drained)
}

// TestDaemonEarlySIGTERMDrains sends SIGTERM the moment /readyz first
// answers 200: the signal handler must already be installed, so the
// daemon drains and exits 0 instead of dying on the default action.
func TestDaemonEarlySIGTERMDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon subprocess test skipped in -short mode")
	}
	bin := buildDaemon(t)
	d := startDaemon(t, bin, "-addr", "127.0.0.1:0", "-store", filepath.Join(t.TempDir(), "store"))
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("readyz never answered 200:\n%s", d.logText())
		}
		time.Sleep(time.Millisecond)
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Wait closes the stderr pipe, so it must come after the scanner's
	// EOF or it races the scanner for the drained line.
	select {
	case <-d.logDone:
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not exit after SIGTERM:\n%s", d.logText())
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("daemon did not exit 0 after an early SIGTERM: %v\n%s", err, d.logText())
	}
	if !strings.Contains(d.logText(), "drained:") {
		t.Errorf("daemon exited without draining:\n%s", d.logText())
	}
}
