package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCLI compiles this command into a temp dir so the tests drive the
// real flag-parsing path end to end.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "memnetviz")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestRendersTreeAndSparkline: a short run prints the module tree with
// one annotated row per module under the processor, and its time series
// sampled once per 100 µs epoch.
func TestRendersTreeAndSparkline(t *testing.T) {
	bin := buildCLI(t)
	out, err := exec.Command(bin, "-wl", "mixB", "-topo", "daisychain", "-size", "small",
		"-simtime", "300us").CombinedOutput()
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	text := string(out)
	if !strings.Contains(text, "\nprocessor\n") {
		t.Errorf("no module tree:\n%s", text)
	}
	if rows := strings.Count(text, "↓req"); rows != 3 {
		t.Errorf("tree has %d module rows, want 3 (mixB on the small study):\n%s", rows, text)
	}
	if !strings.Contains(text, "\nmetrics: 3 ticks x 100.00us\n") {
		t.Fatalf("no time series of one sample per epoch (3):\n%s", text)
	}
	_, spark, ok := strings.Cut(text, "  frontend.completed ")
	if !ok {
		t.Fatalf("no completion sparkline:\n%s", text)
	}
	if glyphs := len([]rune(strings.Fields(spark)[0])); glyphs != 3 {
		t.Errorf("completion sparkline has %d glyphs, want one per epoch (3):\n%s", glyphs, text)
	}
}

// TestSimtimeBelowOneEpochRejected: the series needs at least one epoch,
// so a shorter run fails naming -simtime.
func TestSimtimeBelowOneEpochRejected(t *testing.T) {
	bin := buildCLI(t)
	out, err := exec.Command(bin, "-simtime", "50us").CombinedOutput()
	if err == nil || !strings.Contains(string(out), "bad -simtime") {
		t.Errorf("-simtime 50us: err = %v, want a failure naming -simtime:\n%s", err, out)
	}
}

// TestBadMechRejected: an unknown mechanism fails naming the flag.
func TestBadMechRejected(t *testing.T) {
	bin := buildCLI(t)
	out, err := exec.Command(bin, "-mech", "bogus").CombinedOutput()
	if err == nil {
		t.Fatalf("-mech bogus accepted:\n%s", out)
	}
	if !strings.Contains(string(out), "bad -mech") {
		t.Errorf("error does not name -mech:\n%s", out)
	}
}

// TestAlphaRangeRejected: a managed policy needs a positive slowdown
// budget and no policy takes a negative one; both fail naming -alpha.
func TestAlphaRangeRejected(t *testing.T) {
	bin := buildCLI(t)
	for _, args := range [][]string{
		{"-policy", "aware", "-alpha", "0"},
		{"-alpha", "-0.5"},
	} {
		out, err := exec.Command(bin, append(args, "-simtime", "100us")...).CombinedOutput()
		if err == nil {
			t.Errorf("%v: accepted\n%s", args, out)
			continue
		}
		if !strings.Contains(string(out), "bad -alpha") {
			t.Errorf("%v: error does not name -alpha:\n%s", args, out)
		}
	}
}
