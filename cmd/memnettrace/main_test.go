package main

import (
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCLI compiles this command into a temp dir so the tests drive the
// real subcommand and flag-parsing paths end to end.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "memnettrace")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestRecordInfoReplay: a trace recorded over a 20 µs window must read
// back through info with the recorded access count, and replay must
// inject every one of those accesses into a managed network.
func TestRecordInfoReplay(t *testing.T) {
	bin := buildCLI(t)
	path := filepath.Join(t.TempDir(), "mixb.trace")
	run := func(args ...string) string {
		t.Helper()
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("%v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	rec := run("record", "-wl", "mixB", "-topo", "daisychain", "-o", path, "-simtime", "20us")
	var n int
	var wl, span string
	if _, err := parseLine(rec, "recorded %d accesses of %s over %s", &n, &wl, &span); err != nil || n == 0 {
		t.Fatalf("record reported no accesses (%v):\n%s", err, rec)
	}

	inf := run("info", path)
	var records, reads, writes int
	if _, err := parseLine(inf, "records: %d (%d reads, %d writes)", &records, &reads, &writes); err != nil {
		t.Fatalf("info: %v\n%s", err, inf)
	}
	if records != n || reads+writes != n {
		t.Errorf("info reads back %d records (%d+%d), record wrote %d", records, reads, writes, n)
	}

	rep := run("replay", "-topo", "daisychain", "-mech", "VWL+ROO", "-policy", "aware", path)
	var injected int
	if _, err := parseLine(rep, "replayed %d accesses", &injected); err != nil {
		t.Fatalf("replay: %v\n%s", err, rep)
	}
	if injected != n {
		t.Errorf("replay injected %d accesses, the trace holds %d", injected, n)
	}
	if !strings.Contains(rep, "throughput:") {
		t.Errorf("replay printed no report:\n%s", rep)
	}
}

// TestBadSizeRejected: a misspelled -size must fail naming the flag in
// both subcommands that take it, not silently run the small study.
func TestBadSizeRejected(t *testing.T) {
	bin := buildCLI(t)
	path := filepath.Join(t.TempDir(), "x.trace")
	for _, args := range [][]string{
		{"record", "-size", "bogus", "-o", path, "-simtime", "1us"},
		{"replay", "-size", "bogus", path},
	} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err == nil {
			t.Errorf("%v: accepted\n%s", args, out)
			continue
		}
		if !strings.Contains(string(out), "bad -size") {
			t.Errorf("%v: error does not name -size:\n%s", args, out)
		}
	}
}

// TestReplayAlphaRangeRejected: replay runs the same range check as
// every other entry path — a managed policy needs a positive slowdown
// budget and no policy takes a negative one — and names -alpha.
func TestReplayAlphaRangeRejected(t *testing.T) {
	bin := buildCLI(t)
	path := filepath.Join(t.TempDir(), "x.trace")
	if out, err := exec.Command(bin, "record", "-o", path, "-simtime", "2us").CombinedOutput(); err != nil {
		t.Fatalf("record: %v\n%s", err, out)
	}
	for _, args := range [][]string{
		{"-policy", "aware", "-alpha", "0"},
		{"-policy", "aware", "-alpha", "-0.5"},
	} {
		out, err := exec.Command(bin, append(append([]string{"replay"}, args...), path)...).CombinedOutput()
		if err == nil {
			t.Errorf("replay %v: accepted\n%s", args, out)
			continue
		}
		if !strings.Contains(string(out), "bad -alpha") {
			t.Errorf("replay %v: error does not name -alpha:\n%s", args, out)
		}
	}
}

// parseLine scans the first line of out that matches format.
func parseLine(out, format string, args ...any) (int, error) {
	var err error
	for _, line := range strings.Split(out, "\n") {
		var n int
		if n, err = fmt.Sscanf(strings.Join(strings.Fields(line), " "), format, args...); err == nil {
			return n, nil
		}
	}
	return 0, err
}
