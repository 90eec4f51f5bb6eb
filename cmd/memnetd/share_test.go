package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"

	"memnet/internal/exp"
	"memnet/internal/serve"
)

// entry returns the path and result bytes of the one entry in the
// store at dir.
func entry(t *testing.T, dir string) (string, json.RawMessage) {
	t.Helper()
	names, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(names) != 1 {
		t.Fatalf("store %s holds %d entries, want 1", dir, len(names))
	}
	data, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	var e struct{ Result json.RawMessage }
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	return names[0], e.Result
}

// unaudited decodes a served result and clears its audit stride, the
// one spec field that is not part of a cell's identity.
func unaudited(t *testing.T, raw json.RawMessage) exp.Result {
	t.Helper()
	var res exp.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	res.Spec.AuditEvery = 0
	return res
}

// stats reads the daemon's /statusz.
func (d *daemon) stats(t *testing.T) serve.Stats {
	t.Helper()
	resp, err := http.Get(d.base + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStoreSharedWithMemnetsim pins the one result store across
// processes: a cell `memnetsim -config … -store DIR` ran is a cache hit
// for `memnetd -store DIR`, served as the exact bytes memnetsim stored,
// which equal memnetd's own fresh run of the cell but for the audit
// stride the run was made under (memnetd's cells run unaudited); and a
// cell memnetd ran is restored by memnetsim (its entry is read, not
// rewritten) with the report a fresh run prints.
func TestStoreSharedWithMemnetsim(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process store test skipped in -short mode")
	}
	daemonBin := buildDaemon(t)
	dir := t.TempDir()
	simBin := filepath.Join(dir, "memnetsim")
	if out, err := exec.Command("go", "build", "-o", simBin, "../memnetsim").CombinedOutput(); err != nil {
		t.Fatalf("go build memnetsim: %v\n%s", err, out)
	}
	body := `{"runs":[{"workload":"mixG","simtime":"50us","warmup":"5us"}]}`
	cfg := filepath.Join(dir, "batch.json")
	if err := os.WriteFile(cfg, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	wall := regexp.MustCompile(`(?m)^batch: .*\n`)
	memnetsim := func(store string) []byte {
		t.Helper()
		out, err := exec.Command(simBin, "-config", cfg, "-jobs", "1", "-store", store).CombinedOutput()
		if err != nil {
			t.Fatalf("memnetsim -store %s: %v\n%s", store, err, out)
		}
		return wall.ReplaceAll(out, nil)
	}
	daemonRun := func(store string) (json.RawMessage, serve.Stats) {
		t.Helper()
		d := startDaemon(t, daemonBin, "-addr", "127.0.0.1:0", "-store", store)
		id := d.submit(t, body)
		if state, _ := d.waitDone(t, id, 2*time.Minute); state != "done" {
			t.Fatalf("job on store %s ended %s:\n%s", store, state, d.logText())
		}
		res := d.result(t, id)
		if len(res) != 1 {
			t.Fatalf("job returned %d results, want 1", len(res))
		}
		return res[0], d.stats(t)
	}

	// memnetsim → memnetd.
	simStore := filepath.Join(dir, "sim-store")
	simOut := memnetsim(simStore)
	hit, st := daemonRun(simStore)
	if st.CellsRun != 0 || st.CacheHits != 1 {
		t.Fatalf("memnetd over memnetsim's store: cells_run=%d cache_hits=%d, want 0 and 1", st.CellsRun, st.CacheHits)
	}
	daemonStore := filepath.Join(dir, "daemon-store")
	fresh, st := daemonRun(daemonStore)
	if st.CellsRun != 1 || st.CacheHits != 0 {
		t.Fatalf("memnetd on an empty store: cells_run=%d cache_hits=%d, want 1 and 0", st.CellsRun, st.CacheHits)
	}
	if _, stored := entry(t, simStore); !bytes.Equal(hit, stored) {
		t.Fatalf("memnetd served different bytes than memnetsim stored:\n%s\n%s", hit, stored)
	}
	if a, b := unaudited(t, hit), unaudited(t, fresh); !reflect.DeepEqual(a, b) {
		t.Fatalf("memnetsim's stored cell differs from memnetd's fresh run:\n%+v\n%+v", a, b)
	}

	// memnetd → memnetsim: the entry is only read (a fresh run would
	// replace the file by rename), and the report matches a fresh run's.
	path, _ := entry(t, daemonStore)
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if out := memnetsim(daemonStore); !bytes.Equal(out, simOut) {
		t.Fatalf("memnetsim over memnetd's store printed a different report:\n%s\n--- fresh ---\n%s", out, simOut)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) {
		t.Fatal("memnetsim re-simulated memnetd's cell instead of restoring it")
	}
}
