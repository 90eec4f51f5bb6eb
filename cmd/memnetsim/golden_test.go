package main

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// update regenerates the golden files from the current binary:
//
//	go test ./cmd/memnetsim -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files from current output")

// wallRE and metricsOutRE scrub the only nondeterministic tokens in the
// output (wall-clock seconds, the caller's -metrics-out path) so goldens
// compare byte-for-byte.
var (
	wallRE       = regexp.MustCompile(`in \d+\.\d\ds wall`)
	metricsOutRE = regexp.MustCompile(`wrote metrics to .*`)
)

func scrubWall(b []byte) []byte {
	b = wallRE.ReplaceAll(b, []byte("in X.XXs wall"))
	return metricsOutRE.ReplaceAll(b, []byte("wrote metrics to METRICS_OUT"))
}

// checkGolden compares got against testdata/<name>.golden byte-for-byte
// (after scrubbing), rewriting the file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	got = scrubWall(got)
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

// TestGoldenOutput locks the default text output of the CLI byte-for-byte.
// The goldens were captured before the metrics subsystem landed, so a pass
// here also proves the disabled-metrics path leaves output untouched.
func TestGoldenOutput(t *testing.T) {
	bin := buildCLI(t)
	cases := []struct {
		name string
		args []string
	}{
		{"run_default", []string{"-simtime", "60us", "-warmup", "20us"}},
		{"run_daisychain", []string{"-wl", "mixA", "-topo", "daisychain", "-mech", "VWL",
			"-policy", "unaware", "-simtime", "60us", "-warmup", "20us"}},
		{"batch", []string{"-config", "testdata/batch_config.json", "-jobs", "2"}},
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

// TestGoldenMetricsRun locks the metrics pipeline of a single run byte
// for byte: with the sampler armed, the stdout report (with its
// time-series figure) and the raw JSONL metrics export must both match.
func TestGoldenMetricsRun(t *testing.T) {
	bin := buildCLI(t)
	outPath := filepath.Join(t.TempDir(), "m.jsonl")
	out, err := exec.Command(bin,
		"-wl", "mixB", "-topo", "daisychain", "-size", "small",
		"-simtime", "220us", "-warmup", "20us",
		"-metrics", "-metrics-interval", "20us", "-metrics-out", outPath,
	).CombinedOutput()
	if err != nil {
		t.Fatalf("metrics run: %v\n%s", err, out)
	}
	checkGolden(t, "metrics_run", out)

	export, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatalf("read metrics export: %v", err)
	}
	checkGolden(t, "metrics_export", export)
}

// TestMetricsFlagValidation: metrics flags must be rejected without
// -metrics or with a bad interval, each naming the offending flag, and a
// valid -metrics run must print the time-series figure.
func TestMetricsFlagValidation(t *testing.T) {
	bin := buildCLI(t)
	const bound = "bad -metrics-interval: sampling every"
	for name, tc := range map[string]struct {
		args []string
		want string
	}{
		"out without metrics":      {[]string{"-metrics-out", "x.jsonl"}, "bad -metrics-out"},
		"interval without metrics": {[]string{"-metrics-interval", "5us"}, "bad -metrics-interval"},
		"unparseable interval":     {[]string{"-metrics", "-metrics-interval", "bogus"}, "bad -metrics-interval"},
		"zero interval":            {[]string{"-metrics", "-metrics-interval", "0s"}, "bad -metrics-interval"},
		"interval over simtime":    {[]string{"-metrics", "-metrics-interval", "50us", "-simtime", "40us"}, bound},
		"over 1024 ticks":          {[]string{"-metrics", "-metrics-interval", "1us", "-simtime", "1025us"}, bound},
		"over 1024 ticks in a batch": {[]string{"-metrics", "-metrics-interval", "10ns",
			"-config", "testdata/batch_config.json"}, "run 1: " + bound},
	} {
		out, err := exec.Command(bin, tc.args...).CombinedOutput()
		if err == nil {
			t.Errorf("%s: accepted\n%s", name, out)
			continue
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("%s: error lacks %q:\n%s", name, tc.want, out)
		}
	}

	outPath := filepath.Join(t.TempDir(), "m.jsonl")
	out, err := exec.Command(bin, "-metrics", "-metrics-out", outPath,
		"-simtime", "30us", "-warmup", "10us").CombinedOutput()
	if err != nil {
		t.Fatalf("valid -metrics run failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "metrics: ") {
		t.Errorf("-metrics run printed no time-series figure:\n%s", out)
	}
	data, err := os.ReadFile(outPath)
	if err != nil || !strings.Contains(string(data), `"series":"frontend.completed"`) {
		t.Errorf("-metrics-out export missing or incomplete (err=%v):\n%s", err, data)
	}
}
