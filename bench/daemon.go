package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"memnet/internal/exp"
	"memnet/internal/serve"
	"memnet/internal/sim"
)

// rssJobs is the job count at which memnetd's peak RSS is read. memnetd
// keeps every job it has served, so its RSS grows with the jobs a run
// manages; reading it at a fixed count keeps host speed out of it.
const rssJobs = 250

// loadSlice is how long the clients run between host probes. Each client
// finishes its current job at a slice end, so no job spans a probe.
const loadSlice = time.Second

// daemon is a running memnetd child process.
type daemon struct {
	cmd     *exec.Cmd
	addr    string        // host:port from its "listening on" line
	logDone chan struct{} // closed once its stderr reaches EOF
}

// startDaemon execs memnetd on an ephemeral loopback port over the store
// in dir and waits until /readyz answers 200. The caller removes dir once
// every daemon on it has stopped.
func startDaemon(ctx context.Context, client *http.Client, opt options, dir string) (*daemon, error) {
	cmd := exec.Command(opt.memnetd, "-addr", "127.0.0.1:0", "-store", filepath.Join(dir, "store"))
	stderr, err := cmd.StderrPipe()
	if err == nil {
		err = cmd.Start()
	}
	if err != nil {
		return nil, fmt.Errorf("start memnetd: %w", err)
	}
	d := &daemon{cmd: cmd, logDone: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		defer close(d.logDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(os.Stderr, line)
			if _, rest, ok := strings.Cut(line, "listening on http://"); ok {
				addr, _, _ := strings.Cut(rest, " ")
				select {
				case addrCh <- addr:
				default:
				}
			}
		}
	}()
	select {
	case d.addr = <-addrCh:
	case <-d.logDone:
		d.kill()
		return nil, errors.New("memnetd exited before listening")
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, errors.New("memnetd did not report its address within 30s")
	case <-ctx.Done():
		d.kill()
		return nil, ctx.Err()
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if code, _, err := get(ctx, client, d.url("/readyz")); err == nil && code == http.StatusOK {
			return d, nil
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("memnetd at %s never became ready", d.addr)
		}
		time.Sleep(time.Millisecond)
	}
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

// stop drains memnetd with SIGTERM and waits for it to exit.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	<-d.logDone
	err := d.cmd.Wait()
	// memnetd answers /readyz before it installs its signal handler, so a
	// SIGTERM right after start ends it undrained; with no job in flight
	// that is a clean stop.
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
			err = nil
		}
	}
	if err != nil {
		return fmt.Errorf("memnetd: %w", err)
	}
	return nil
}

// kill ends memnetd on an error path and waits for it.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.logDone
	d.cmd.Wait()
}

// peakRSSMB reads memnetd's peak resident set so far.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// newClient returns an HTTP client holding at most one connection.
func newClient() (*http.Client, *http.Transport) {
	tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &http.Client{Transport: tp, Timeout: time.Minute}, tp
}

func get(ctx context.Context, client *http.Client, url string) (int, []byte, error) {
	return do(ctx, client, http.MethodGet, url, nil)
}

func do(ctx context.Context, client *http.Client, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// specJSON is spec as a memnetd run with the given α. Under policy none
// α changes only the cache key, so every fresh job does the same work.
func specJSON(spec exp.Spec, alpha float64) exp.SpecJSON {
	dur := func(d sim.Duration) string { return time.Duration(d / sim.Nanosecond).String() }
	return exp.SpecJSON{
		Workload:  spec.Workload.Name,
		Topology:  spec.Topology.String(),
		Size:      spec.Size.String(),
		Mechanism: spec.Mech.String(),
		Policy:    "none",
		Alpha:     alpha,
		SimTime:   dur(spec.SimTime),
		Warmup:    dur(spec.Warmup),
	}
}

// jobRecord is one completed job. Its times are multiplied by factor, the
// host factor of its slice, when reported.
type jobRecord struct {
	start, end time.Time
	submit     time.Duration
	fresh      bool
	factor     float64
}

func (j jobRecord) ms() float64       { return msOf(j.end.Sub(j.start)) * j.factor }
func (j jobRecord) submitMs() float64 { return msOf(j.submit) * j.factor }

// loadResult is what a closed loop against memnetd measured.
type loadResult struct {
	jobs              []jobRecord // measured jobs that succeeded
	seconds           float64     // normalized wall time of the measured slices
	attempted, failed int
	rssMB             float64     // memnetd's peak RSS after rssJobs jobs, or at the end if fewer ran
	stats             serve.Stats // /statusz after the loop
}

// driveLoad runs the daemon job mix from one closed-loop client: it
// submits a job, streams it until done and fetches its result, then
// starts the next. One client keeps the load within the 2-CPU bench host
// (the client and memnetd's single default runner), so a cache hit never
// queues behind a simulation; two clients with two runners oversubscribed
// the host and doubled the run-to-run spread.
//
// Every fourth job resubmits an earlier fresh job, picked by the seed, and
// must come back as a byte-identical cache hit. The others are fresh: w's
// cell under a new α, whose results must match the pinned digest. Fresh
// jobs are the majority so that the median job is one: a hit is three
// loopback round trips and the accept WAL's fsyncs, whose time swung by
// half from run to run with how fast the host woke the two processes and
// synced its shared disk, which no host probe followed. With three hits
// in four the median job spread 0.10-0.28 over ten sets of ten runs; with
// one in four, 0.05-0.09 over five. A fixed mix rather than a random one
// keeps the fresh share the same in every run.
//
// The client runs in slices of loadSlice with a host probe between
// slices; slices that start after warm are measured, and no slice starts
// after warm+measure. tr, when non-nil, records job spans. between, when
// non-nil, runs after each slice's probe with that probe's host factor.
func driveLoad(ctx context.Context, client *http.Client, d *daemon, w benchWorkload, seed uint64,
	warm, measure time.Duration, want digest, tr *tracer, between func(factor float64) error) (*loadResult, error) {
	m := &jobMix{client: client, d: d, spec: w.spec, want: want, tr: tr,
		rng: sim.NewRNG(splitmix64(seed)), alphaBase: float64(splitmix64(seed)%1000+1) / 1e4}
	lr := &m.lr
	begin := time.Now()
	measureFrom, stopAt := begin.Add(warm), begin.Add(warm+measure)
	clock := newHostClock()
	for sliceStart := begin; sliceStart.Before(stopAt); sliceStart = time.Now() {
		var done []jobRecord
		var err error
		ms, f := clock.time(func() {
			for time.Since(sliceStart) < loadSlice && time.Now().Before(stopAt) && err == nil {
				var rec jobRecord
				var ok bool
				if rec, ok, err = m.next(ctx); ok {
					done = append(done, rec)
				}
			}
		})
		if err != nil {
			return nil, err
		}
		if !sliceStart.Before(measureFrom) {
			for _, j := range done {
				j.factor = f
				lr.jobs = append(lr.jobs, j)
			}
			lr.seconds += ms / 1000
		}
		if between != nil {
			if err := between(clock.factor); err != nil {
				return nil, err
			}
		}
	}
	if lr.rssMB == 0 {
		fmt.Fprintf(os.Stderr, "only %d jobs ran: max_rss_mb is read at the end of the run, not after %d jobs\n", lr.attempted, rssJobs)
		rss, err := d.peakRSSMB()
		if err != nil {
			return nil, err
		}
		lr.rssMB = rss
	}
	code, b, err := get(ctx, client, d.url("/statusz"))
	if err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("statusz: %d %v", code, err)
	}
	if err := json.Unmarshal(b, &lr.stats); err != nil {
		return nil, fmt.Errorf("statusz: %w", err)
	}
	return lr, nil
}

// jobMix is the load's client: what it needs to build and check jobs,
// and the fresh jobs it has done so far.
type jobMix struct {
	client    *http.Client
	d         *daemon
	spec      exp.Spec
	want      digest
	tr        *tracer
	rng       *sim.RNG
	alphaBase float64
	pool      []struct{ body, results []byte } // fresh jobs, for resubmission
	lr        loadResult
}

// next runs and checks the next job and counts it. ok reports a job that
// succeeded; the error is for a canceled run or an unreadable memnetd.
func (m *jobMix) next(ctx context.Context) (rec jobRecord, ok bool, err error) {
	lr := &m.lr
	fresh := lr.attempted%4 != 3 || len(m.pool) == 0
	var body, orig []byte
	if fresh {
		alpha := m.alphaBase + float64(lr.attempted+1)*1e-9
		body, _ = json.Marshal(serve.SubmitRequest{Runs: []exp.SpecJSON{specJSON(m.spec, alpha)}})
	} else {
		p := m.pool[m.rng.Intn(len(m.pool))]
		body, orig = p.body, p.results
	}
	rec, results, jobErr := runJob(ctx, m.client, m.d, body, m.tr)
	if ctx.Err() != nil {
		return rec, false, ctx.Err()
	}
	if jobErr == nil {
		jobErr = checkJob(fresh, results, orig, m.want)
	}
	lr.attempted++
	if lr.attempted == rssJobs {
		if lr.rssMB, err = m.d.peakRSSMB(); err != nil {
			return rec, false, err
		}
	}
	if jobErr != nil {
		lr.failed++
		fmt.Fprintf(os.Stderr, "job failed: %v\n", jobErr)
		return rec, false, nil
	}
	if fresh {
		m.pool = append(m.pool, struct{ body, results []byte }{body, results})
	}
	rec.fresh = fresh
	return rec, true, nil
}

// runJob submits one job, streams it until the server ends the stream
// and fetches its result, returning the result's "results" array.
func runJob(ctx context.Context, client *http.Client, d *daemon, body []byte, tr *tracer) (jobRecord, []byte, error) {
	rec := jobRecord{start: time.Now()}
	root := 0
	if tr != nil {
		root = tr.open("job", 0)
		defer tr.close(root)
	}
	step := func(name, method, path string, body []byte, want int) ([]byte, error) {
		t := time.Now()
		code, b, err := do(ctx, client, method, d.url(path), body)
		if tr != nil {
			tr.add(name, root, t, time.Now(), nil)
		}
		if err == nil && code != want {
			err = fmt.Errorf("%s %s: status %d: %s", method, path, code, bytes.TrimSpace(b))
		}
		return b, err
	}
	b, err := step("job.submit", http.MethodPost, "/jobs", body, http.StatusAccepted)
	if err != nil {
		return rec, nil, err
	}
	rec.submit = time.Since(rec.start)
	var ack serve.SubmitResponse
	if err := json.Unmarshal(b, &ack); err != nil {
		return rec, nil, fmt.Errorf("submit ack: %w", err)
	}
	b, err = step("job.stream", http.MethodGet, "/jobs/"+ack.ID+"/stream", nil, http.StatusOK)
	if err != nil {
		return rec, nil, err
	}
	if !bytes.Contains(b, []byte("event: done")) {
		// serve's job.finish marks the job terminal before it publishes
		// "done", so a stream that subscribes in between replays without
		// it. The job's state, checked below, is what counts.
		fmt.Fprintf(os.Stderr, "job %s: stream ended without a done event\n", ack.ID)
	}
	b, err = step("job.result", http.MethodGet, "/jobs/"+ack.ID+"/result", nil, http.StatusOK)
	if err != nil {
		return rec, nil, err
	}
	rec.end = time.Now()
	var res struct {
		Status  serve.Status    `json:"status"`
		Results json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(b, &res); err != nil {
		return rec, nil, fmt.Errorf("job %s result: %w", ack.ID, err)
	}
	if res.Status.State != serve.StateDone {
		return rec, nil, fmt.Errorf("job %s ended %s: %s", ack.ID, res.Status.State, res.Status.Error)
	}
	return rec, res.Results, nil
}

// checkJob holds a fresh job's result to the pinned digest and a
// resubmission's to its original, byte for byte.
func checkJob(fresh bool, results, orig []byte, want digest) error {
	if !fresh {
		if !bytes.Equal(results, orig) {
			return errors.New("resubmitted job's results differ from the original's")
		}
		return nil
	}
	var rs []exp.Result
	if err := json.Unmarshal(results, &rs); err != nil {
		return fmt.Errorf("decode results: %w", err)
	}
	if len(rs) != 1 {
		return fmt.Errorf("fresh job returned %d results, want 1", len(rs))
	}
	if got := digestOf(rs[0]); got != want {
		return fmt.Errorf("fresh job's statistics %+v differ from the pinned %+v", got, want)
	}
	return nil
}
