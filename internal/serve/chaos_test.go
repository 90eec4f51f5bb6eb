package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"memnet/internal/exp"
)

// TestChaosSoak is the daemon-lifecycle acceptance test: concurrent
// submissions (some overlapping, some duplicates, some streaming with
// mid-stream client disconnects), then a drain with a deadline while
// jobs are still in flight — the in-process equivalent of SIGTERM,
// which cmd/memnetd wires to exactly this Drain call. Asserts:
//
//   - the daemon never wedges: every admitted job reaches a terminal
//     state and every rejected submission got a clean 429/503;
//   - duplicate submissions are served from the content-addressed store
//     byte-identical to the fresh run;
//   - the journal survives the churn: it re-opens cleanly (no torn
//     tail) and holds only complete entries;
//   - no goroutine leaks after the drain;
//   - canceled jobs go terminal promptly (the kernel check aborts
//     within one interval, not at simulation end).
func TestChaosSoak(t *testing.T) {
	baseline := runtime.NumGoroutine()

	dir := t.TempDir()
	store, err := NewStore(dir + "/store")
	if err != nil {
		t.Fatal(err)
	}
	journal, _, err := exp.OpenJournal(dir+"/journal.jsonl", nil)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{
		Store:      store,
		Journal:    journal,
		QueueDepth: 4,
		Runners:    2,
		Logf:       t.Logf,
	})
	hs := httptest.NewServer(s.Handler())

	rng := rand.New(rand.NewSource(42))
	body := func(salt int) string {
		// A small pool of distinct specs guarantees duplicate submissions
		// (cache hits) alongside fresh work.
		return fmt.Sprintf(`{"runs":[{"workload":"mixG","simtime":"20us","warmup":"5us","wakeup_ns":%d}]}`,
			14+salt%3)
	}
	// Slow bodies keep work genuinely in flight so disconnects land on
	// running kernels and the drain deadline catches live jobs. Distinct
	// wakeups keep them from ever being cache hits.
	slowBody := func(salt int) string {
		return fmt.Sprintf(`{"runs":[{"workload":"mixG","simtime":"10ms","warmup":"5us","wakeup_ns":%d}]}`,
			1000+salt)
	}

	const clients = 6
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		accepted []string
		statuses = map[int]int{}
	)
	seeds := make([]int64, clients)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			crng := rand.New(rand.NewSource(seeds[c]))
			for i := 0; i < 4; i++ {
				if crng.Intn(3) == 0 {
					// Streaming submit, disconnected mid-stream: the job
					// must cancel, not run to completion unattended.
					ctx, cancel := context.WithCancel(context.Background())
					req, _ := http.NewRequestWithContext(ctx, http.MethodPost,
						hs.URL+"/jobs?stream=1", strings.NewReader(slowBody(c*7+i)))
					req.Header.Set("Content-Type", "application/json")
					resp, err := http.DefaultClient.Do(req)
					if err == nil {
						buf := make([]byte, 1)
						resp.Body.Read(buf)
						cancel()
						resp.Body.Close()
						mu.Lock()
						statuses[resp.StatusCode]++
						mu.Unlock()
					}
					cancel()
					continue
				}
				// The last submission per client is slow, so the drain
				// deadline below catches genuinely in-flight jobs.
				b := body(c + i)
				if i == 3 {
					b = slowBody(100 + c)
				}
				resp, err := http.Post(hs.URL+"/jobs", "application/json",
					strings.NewReader(b))
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				var sr SubmitResponse
				code := resp.StatusCode
				if code == http.StatusAccepted {
					json.NewDecoder(resp.Body).Decode(&sr)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				mu.Lock()
				statuses[code]++
				if sr.ID != "" {
					accepted = append(accepted, sr.ID)
				}
				mu.Unlock()
				switch code {
				case http.StatusAccepted, http.StatusTooManyRequests, http.StatusServiceUnavailable:
				default:
					t.Errorf("client %d: unexpected status %d", c, code)
				}
			}
		}(c)
	}
	wg.Wait()

	// Drain while work may still be in flight — the SIGTERM moment. The
	// short deadline forces cancellation of anything still running, which
	// must go terminal promptly via the kernel check.
	drainStart := time.Now()
	dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer dcancel()
	s.Drain(dctx)
	if d := time.Since(drainStart); d > 20*time.Second {
		t.Fatalf("drain took %v; canceled jobs did not abort promptly", d)
	}

	// Every accepted job is terminal.
	mu.Lock()
	ids := append([]string(nil), accepted...)
	counts := fmt.Sprintf("%v", statuses)
	mu.Unlock()
	t.Logf("soak: %d accepted, statuses %s, stats %+v", len(ids), counts, s.Stats())
	if len(ids) == 0 {
		t.Fatal("soak admitted nothing; test is vacuous")
	}
	if s.Stats().Canceled == 0 {
		t.Error("soak canceled nothing; disconnects/drain never hit a live job")
	}
	for _, id := range ids {
		resp, err := http.Get(hs.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st Status
		json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		switch st.State {
		case StateDone, StateFailed, StateCanceled:
		default:
			t.Errorf("job %s still %q after drain", id, st.State)
		}
	}

	// Byte-identical duplicate: submit the first spec again on a fresh
	// server sharing the store — it must be a pure cache hit.
	journal.Close()
	s2 := New(Config{Store: store, QueueDepth: 2, Runners: 1, Logf: t.Logf})
	hs2 := httptest.NewServer(s2.Handler())
	sr1 := submit(t, hs2.URL, body(0))
	st1 := waitTerminal(t, hs2.URL, sr1.ID, 60*time.Second)
	sr2 := submit(t, hs2.URL, body(0))
	st2 := waitTerminal(t, hs2.URL, sr2.ID, 10*time.Second)
	if st2.CacheHits != 1 {
		t.Fatalf("duplicate submission was not a cache hit: %+v then %+v", st1, st2)
	}
	r1 := fetchResult(t, hs2.URL, sr1.ID)
	r2 := fetchResult(t, hs2.URL, sr2.ID)
	if len(r1) != 1 || len(r2) != 1 || !bytes.Equal(r1[0], r2[0]) {
		t.Fatal("cached result is not byte-identical to the stored run")
	}
	dctx2, dcancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel2()
	s2.Drain(dctx2)
	hs2.Close()
	hs.Close()

	// The journal survived: re-opens with no error (flock released, no
	// torn tail) and every loaded entry re-marshals.
	j2, loaded, err := exp.OpenJournal(dir+"/journal.jsonl", nil)
	if err != nil {
		t.Fatalf("journal did not survive the soak: %v", err)
	}
	for k, res := range loaded {
		if _, err := json.Marshal(res); err != nil {
			t.Fatalf("journal entry %s is torn: %v", k, err)
		}
	}
	j2.Close()
	t.Logf("soak: journal holds %d complete entries", len(loaded))

	// No goroutine leaks once HTTP idle connections wind down.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestCancelStopsCPUWithinCheckInterval is the acceptance bound in its
// sharpest form: a job whose simulation would run for minutes is
// canceled, and the runner must come back within seconds — i.e. the
// kernel noticed within one check interval, not at the horizon.
func TestCancelStopsCPUWithinCheckInterval(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Store: store, QueueDepth: 1, Runners: 1, Logf: t.Logf})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	// ~1s of simulated time is minutes of wall time on this machine.
	sr := submit(t, hs.URL, `{"runs":[{"workload":"mixG","simtime":"1s","warmup":"5us"}]}`)
	time.Sleep(200 * time.Millisecond) // let the kernel get going
	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/jobs/"+sr.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	start := time.Now()
	st := waitTerminal(t, hs.URL, sr.ID, 15*time.Second)
	if st.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", st.State)
	}
	took := time.Since(start)
	t.Logf("cancel-to-terminal latency: %v", took)
	if took > 5*time.Second {
		t.Fatalf("cancellation latency %v; the kernel check is not aborting within one interval", took)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.Drain(ctx)
}
