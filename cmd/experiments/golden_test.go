package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// update regenerates the golden files from the current binary:
//
//	go test ./cmd/experiments -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files from current output")

// checkGolden compares got against testdata/<name>.golden byte-for-byte
// (the experiments CLI prints no wall-clock timing on these paths),
// rewriting the file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("update %s: %v", path, err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s (run with -update to create): %v", path, err)
	}
	if string(got) != string(want) {
		t.Errorf("%s: output differs from golden (regenerate deliberately with -update)\n--- got ---\n%s\n--- want ---\n%s",
			name, got, want)
	}
}

// TestGoldenOutput locks the default text output byte-for-byte: the
// experiment list, two light analytic experiments, and one simulating
// sweep under the parallel executor. The goldens were captured before the
// metrics subsystem landed, so a pass here also proves the
// disabled-metrics path leaves output untouched.
func TestGoldenOutput(t *testing.T) {
	bin := buildCLI(t)
	cases := []struct {
		name string
		args []string
	}{
		{"list", []string{"-list"}},
		{"tableI", []string{"-run", "tableI"}},
		{"fig4", []string{"-run", "fig4"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(bin, tc.args...).CombinedOutput()
			if err != nil {
				t.Fatalf("%v: %v\n%s", tc.args, err, out)
			}
			checkGolden(t, tc.name, out)
		})
	}
}

// TestGoldenMetricsSweep locks the metrics sweep pipeline byte for byte
// across every artifact the CLI writes: the seeds experiment (five
// aware cells and their paired full-power baselines) under the parallel
// executor with the metrics sampler armed must reproduce the stdout
// report, the -outdir figure file, the -store entries (each entry's
// file, in file-name order, one per line), and the CSV metrics export
// exactly. The 338 KB CSV is pinned by hash rather than committed
// wholesale.
func TestGoldenMetricsSweep(t *testing.T) {
	bin := buildCLI(t)
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "m.csv")
	storeDir := filepath.Join(dir, "store")
	outDir := filepath.Join(dir, "out")
	// .Output(), not .CombinedOutput(): stderr carries the export
	// notice, whose path varies per run.
	out, err := exec.Command(bin, "-run", "seeds",
		"-simtime", "120us", "-warmup", "20us", "-jobs", "2",
		"-metrics", "-metrics-interval", "20us",
		"-metrics-out", csvPath, "-store", storeDir, "-outdir", outDir).Output()
	if err != nil {
		t.Fatalf("metrics sweep: %v", err)
	}
	checkGolden(t, "metrics_sweep", out)

	fig, err := os.ReadFile(filepath.Join(outDir, "seeds.txt"))
	if err != nil {
		t.Fatalf("read -outdir figure: %v", err)
	}
	checkGolden(t, "metrics_figure", fig)

	entries, err := filepath.Glob(filepath.Join(storeDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	var store []byte
	for _, name := range entries { // Glob sorts by name
		e, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("read store entry: %v", err)
		}
		store = append(append(store, e...), '\n')
	}
	checkGolden(t, "metrics_store", store)

	csv, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatalf("read metrics export: %v", err)
	}
	digest := fmt.Sprintf("sha256:%x bytes:%d\n", sha256.Sum256(csv), len(csv))
	checkGolden(t, "metrics_export", []byte(digest))
}

// TestGoldenCalibrate pins the model-calibration report byte for byte.
// The report carries no wall time and its sweep is order-preserving, so
// the same bytes must come back at any -jobs value, and the -outdir copy
// must equal stdout exactly (that copy is what results/calibration.txt
// is generated from).
func TestGoldenCalibrate(t *testing.T) {
	bin := buildCLI(t)
	dir := t.TempDir()
	out, err := exec.Command(bin, "-calibrate", "-jobs", "2", "-outdir", dir).Output()
	if err != nil {
		t.Fatalf("-calibrate: %v", err)
	}
	checkGolden(t, "calibrate", out)

	seq, err := exec.Command(bin, "-calibrate", "-jobs", "1").Output()
	if err != nil {
		t.Fatalf("-calibrate -jobs 1: %v", err)
	}
	if string(seq) != string(out) {
		t.Error("-calibrate output differs between -jobs 1 and -jobs 2")
	}

	saved, err := os.ReadFile(filepath.Join(dir, "calibration.txt"))
	if err != nil {
		t.Fatalf("read -outdir report: %v", err)
	}
	if string(saved) != string(out) {
		t.Error("-outdir calibration.txt differs from stdout")
	}
}

// TestCalibrateFlagValidation: -calibrate owns the process, so it must
// reject the run flags loudly rather than ignore them.
func TestCalibrateFlagValidation(t *testing.T) {
	bin := buildCLI(t)
	for name, args := range map[string][]string{
		"with -run":       {"-calibrate", "-run", "tableI"},
		"with -list":      {"-calibrate", "-list"},
		"bad simtime":     {"-calibrate", "-simtime", "bogus"},
		"zero simtime":    {"-calibrate", "-simtime", "0s"},
		"negative warmup": {"-calibrate", "-warmup", "-1us"},
		"zero jobs":       {"-calibrate", "-jobs", "0"},
	} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err == nil {
			t.Errorf("%s: accepted\n%s", name, out)
			continue
		}
		if !strings.Contains(string(out), "bad -") {
			t.Errorf("%s: error does not name the flag:\n%s", name, out)
		}
	}
}

// TestMetricsFlagValidation mirrors the memnetsim checks for this CLI's
// stderr/exit-code error style.
func TestMetricsFlagValidation(t *testing.T) {
	bin := buildCLI(t)
	for name, args := range map[string][]string{
		"out without metrics":      {"-run", "seeds", "-metrics-out", "x.jsonl"},
		"interval without metrics": {"-run", "seeds", "-metrics-interval", "5us"},
		"unparseable interval":     {"-run", "seeds", "-metrics", "-metrics-interval", "bogus"},
		"zero interval":            {"-run", "seeds", "-metrics", "-metrics-interval", "0s"},
	} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err == nil {
			t.Errorf("%s: accepted\n%s", name, out)
			continue
		}
		if !strings.Contains(string(out), "bad -") {
			t.Errorf("%s: error does not name the flag:\n%s", name, out)
		}
	}

	outPath := filepath.Join(t.TempDir(), "m.csv")
	out, err := exec.Command(bin, "-run", "seeds", "-simtime", "60us", "-warmup", "20us",
		"-metrics", "-metrics-interval", "20us", "-metrics-out", outPath).CombinedOutput()
	if err != nil {
		t.Fatalf("valid -metrics run failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "metrics: ") {
		t.Errorf("-metrics run printed no aggregate time-series figure:\n%s", out)
	}
	data, err := os.ReadFile(outPath)
	if err != nil || !strings.HasPrefix(string(data), "key,series,kind,tick,time_ps,bucket_le,value") {
		t.Errorf("-metrics-out CSV export missing or malformed (err=%v):\n%.200s", err, data)
	}
}
