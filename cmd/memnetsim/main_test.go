package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// buildCLI compiles this command once into a temp dir so the validation
// cases below exercise the real flag-parsing path end to end.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "memnetsim")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestRecoveryFlagValidation: the fault-injection and recovery flags are
// gone with the model paths they drove, and -trace with the per-epoch
// loop that -metrics replaced, so each is an undefined flag: exit 2 from
// the flag package, before any simulation starts.
func TestRecoveryFlagValidation(t *testing.T) {
	bin := buildCLI(t)
	for _, args := range [][]string{
		{"-faults", "scenario.json"}, {"-timeout", "2us"}, {"-retries", "2"},
		{"-retrain", "1us"}, {"-crcretries", "4"}, {"-watchdog"}, {"-trace"},
	} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("%v: err = %v, want exit status 2\n%s", args, err, out)
			continue
		}
		if want := "flag provided but not defined: " + args[0]; !strings.Contains(string(out), want) {
			t.Errorf("%v: output lacks %q:\n%s", args, want, out)
		}
	}
}

// TestEpochCSVShowsMeasuredRun: the per-epoch CSV export samples the run
// the report measures, every run flag included. With a 100 µs warmup, a
// 100 µs measured interval and a 100 µs sampling interval, tick 1 is
// exactly the measured interval, so its completions over 100 µs must
// print the report's throughput.
func TestEpochCSVShowsMeasuredRun(t *testing.T) {
	bin := buildCLI(t)
	args := []string{"-wl", "mixB", "-topo", "daisychain", "-mech", "DVFS+ROO", "-wakeup", "20",
		"-simtime", "100us", "-warmup", "100us"}
	rep, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("report run: %v\n%s", err, rep)
	}
	m := regexp.MustCompile(`throughput: +(\d+\.\d) M accesses/s`).FindSubmatch(rep)
	if m == nil {
		t.Fatalf("no throughput in report:\n%s", rep)
	}
	csv := filepath.Join(t.TempDir(), "epochs.csv")
	out, err := exec.Command(bin, append(args,
		"-metrics", "-metrics-interval", "100us", "-metrics-out", csv)...).CombinedOutput()
	if err != nil {
		t.Fatalf("metrics run: %v\n%s", err, out)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	e := regexp.MustCompile(`(?m),frontend\.completed,counter,1,200000000,,(\d+)$`).FindSubmatch(data)
	if e == nil {
		t.Fatalf("no tick-1 completions in the export:\n%s", data)
	}
	done, _ := strconv.Atoi(string(e[1]))
	if got := fmt.Sprintf("%.1f", float64(done)/100); got != string(m[1]) {
		t.Errorf("tick 1 shows %s M/s, the report measured %s M/s over the same interval:\n%s",
			got, m[1], rep)
	}
}

// TestAlphaRangeRejected: a managed policy needs a positive slowdown
// budget and no policy takes a negative one; both fail before any
// simulation starts, naming -alpha.
func TestAlphaRangeRejected(t *testing.T) {
	bin := buildCLI(t)
	for _, args := range [][]string{
		{"-policy", "aware", "-alpha", "0"},
		{"-alpha", "-0.5"},
	} {
		out, err := exec.Command(bin, append(args, "-simtime", "5us", "-warmup", "1us")...).CombinedOutput()
		if err == nil {
			t.Errorf("%v: accepted\n%s", args, out)
			continue
		}
		if !strings.Contains(string(out), "bad -alpha") {
			t.Errorf("%v: error does not name -alpha:\n%s", args, out)
		}
	}
}

// TestConfigRejectsSingleRunFlags: a -config batch takes every run's
// fields from the file, so a single-run flag next to it would be
// silently ignored (a -wakeup latency never applied); each one is
// rejected by name instead.
func TestConfigRejectsSingleRunFlags(t *testing.T) {
	bin := buildCLI(t)
	cfg := filepath.Join("testdata", "batch_config.json")
	for _, args := range [][]string{
		{"-wl", "sp.D"}, {"-topo", "daisychain"}, {"-size", "big"}, {"-mech", "VWL"},
		{"-policy", "none"}, {"-alpha", "0.1"}, {"-simtime", "5us"}, {"-warmup", "1us"},
		{"-wakeup", "20"},
	} {
		out, err := exec.Command(bin, append([]string{"-config", cfg}, args...)...).CombinedOutput()
		if err == nil {
			t.Errorf("-config with %v: accepted\n%s", args, out)
			continue
		}
		if want := "bad " + args[0] + ":"; !strings.Contains(string(out), want) {
			t.Errorf("-config with %v: error does not name the flag (want %q):\n%s", args, want, out)
		}
	}
}
