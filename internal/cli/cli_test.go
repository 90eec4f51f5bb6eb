package cli

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"memnet/internal/core"
	"memnet/internal/exp"
	"memnet/internal/metrics"
	"memnet/internal/sim"
	"memnet/internal/workload"
)

func TestStatus(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{nil, 0},
		{errors.New("bad -x: y"), 1},
		{Interrupted("interrupted: 1 of 2 runs completed"), 130},
		{&Exit{Code: 2}, 2},
	} {
		if got := Status(tc.err); got != tc.want {
			t.Errorf("Status(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

// TestStartProfilesBadPathFailsFirst: an unwritable -cpuprofile or
// -memprofile fails at start, naming the flag, before anything runs;
// a CPU profile already armed is stopped so a retry can arm again.
func TestStartProfilesBadPathFailsFirst(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "missing", "p.pprof")
	if _, err := StartProfiles(bad, ""); err == nil || !strings.Contains(err.Error(), "bad -cpuprofile") {
		t.Errorf("bad -cpuprofile path: err = %v", err)
	}
	good := filepath.Join(t.TempDir(), "cpu.pprof")
	if _, err := StartProfiles(good, bad); err == nil || !strings.Contains(err.Error(), "bad -memprofile") {
		t.Errorf("bad -memprofile path: err = %v", err)
	}
	stop, err := StartProfiles(good, "")
	if err != nil {
		t.Fatalf("CPU profiling not released after the failed start: %v", err)
	}
	stop()
}

// TestStopProfilesIdempotent: the stop function flushes both profiles
// once; calling it again (a deferred stop after an early one) is a no-op.
func TestStopProfilesIdempotent(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	stop, err := StartProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	stop()
	sizes := map[string]int64{}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil || fi.Size() == 0 {
			t.Fatalf("%s not written (err=%v)", p, err)
		}
		sizes[p] = fi.Size()
	}
	stop()
	for p, n := range sizes {
		if fi, _ := os.Stat(p); fi.Size() != n {
			t.Errorf("second stop rewrote %s", p)
		}
	}
	if stop, err := StartProfiles("", ""); err != nil {
		t.Fatal(err)
	} else {
		stop()
	}
}

// TestWriteMetricsFormatByExtension: .csv gets CSV, anything else JSON
// lines; an uncreatable path names -metrics-out.
func TestWriteMetricsFormatByExtension(t *testing.T) {
	k := sim.NewKernel()
	reg := metrics.New(sim.Microsecond)
	n := 0
	reg.Gauge("test.gauge", func() float64 { n++; return float64(n) })
	reg.Run(k, 3*sim.Microsecond)
	entries := []metrics.Entry{{Key: "cell", Dump: reg.Dump()}}

	dir := t.TempDir()
	for name, want := range map[string]string{
		"m.csv":   "test.gauge,",
		"m.jsonl": `"series":"test.gauge"`,
	} {
		path := filepath.Join(dir, name)
		if err := WriteMetrics(path, entries); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil || !strings.Contains(string(data), want) {
			t.Errorf("%s: want %q in:\n%s (err=%v)", name, want, data, err)
		}
		if isJSON := strings.HasPrefix(string(data), "{"); isJSON != strings.HasSuffix(name, ".jsonl") {
			t.Errorf("%s: wrong format:\n%s", name, data)
		}
	}
	if err := WriteMetrics(filepath.Join(dir, "missing", "m.csv"), entries); err == nil ||
		!strings.Contains(err.Error(), "bad -metrics-out") {
		t.Errorf("uncreatable path: err = %v", err)
	}
}

func TestDurations(t *testing.T) {
	if d, err := PositiveDuration("simtime", "1us"); err != nil || d != sim.Microsecond {
		t.Errorf("PositiveDuration(1us) = %v, %v", d, err)
	}
	if d, err := NonNegativeDuration("warmup", "0s"); err != nil || d != 0 {
		t.Errorf("NonNegativeDuration(0s) = %v, %v", d, err)
	}
	for _, tc := range []struct {
		f         func(string, string) (sim.Duration, error)
		name, val string
		want      string
	}{
		{PositiveDuration, "metrics-interval", "bogus", "bad -metrics-interval: time: invalid duration"},
		{PositiveDuration, "metrics-interval", "0s", "bad -metrics-interval: must be positive, got 0s"},
		{PositiveDuration, "metrics-interval", "-1us", "bad -metrics-interval: must be positive, got -1us"},
		{PositiveDuration, "simtime", "", "bad -simtime: must be positive"},
		{NonNegativeDuration, "warmup", "-1us", "bad -warmup: must be non-negative, got -1us"},
		{NonNegativeDuration, "warmup", "1x", "bad -warmup: time: unknown unit"},
	} {
		if _, err := tc.f(tc.name, tc.val); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("-%s %q: err = %v, want %q", tc.name, tc.val, err, tc.want)
		}
	}
}

func TestCommon(t *testing.T) {
	if st, err := Common(1, 0); err != nil || st.Audit != -1 {
		t.Errorf("defaults: %+v, %v", st, err)
	}
	if st, err := Common(2, 64); err != nil || st.Audit != 64 {
		t.Errorf("valid: %+v, %v", st, err)
	}
	for _, tc := range []struct {
		jobs, audit int
		want        string
	}{
		{0, 0, "bad -jobs"},
		{1, -1, "bad -audit"},
	} {
		if _, err := Common(tc.jobs, tc.audit); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: err = %v, want %q", tc, err, tc.want)
		}
	}
}

// TestFlagError: a spec rejected by the parse or the range check is
// reported under the flag that set the field; other errors pass through.
func TestFlagError(t *testing.T) {
	_, err := exp.Axes{Workload: "mixB", Mechanism: "XXL"}.Parse()
	if got := FlagError(err).Error(); !strings.HasPrefix(got, "bad -mech: ") {
		t.Errorf("parse error = %q, want it to name -mech", got)
	}
	spec := exp.Spec{Workload: workload.Profiles[0], Policy: core.PolicyAware}
	if got := FlagError(spec.Validate()).Error(); !strings.HasPrefix(got, "bad -alpha: ") {
		t.Errorf("range error = %q, want it to name -alpha", got)
	}
	spec.Alpha, spec.Wakeup = 0.05, -sim.Nanosecond
	if got := FlagError(spec.Validate()).Error(); !strings.HasPrefix(got, "bad -wakeup: ") {
		t.Errorf("range error = %q, want it to name -wakeup", got)
	}
	other := errors.New("disk on fire")
	if FlagError(other) != other || FlagError(nil) != nil {
		t.Error("FlagError rewrote an error that is not a spec field's")
	}
}

// flags returns a flag set with the shared flags, parsed from args.
func flags(t *testing.T, args ...string) *flag.FlagSet {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	for _, name := range []string{"metrics-interval", "metrics-out", "cpuprofile", "memprofile"} {
		fs.String(name, "", "")
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestMetricsInterval(t *testing.T) {
	if d, err := MetricsInterval(flags(t), false, "10us"); err != nil || d != 0 {
		t.Errorf("metrics off: %v, %v", d, err)
	}
	if d, err := MetricsInterval(flags(t), true, "20us"); err != nil || d != 20*sim.Microsecond {
		t.Errorf("metrics on: %v, %v", d, err)
	}
	for _, tc := range []struct {
		args []string
		on   bool
		val  string
		want string
	}{
		{[]string{"-metrics-out", "x.csv"}, false, "10us", "bad -metrics-out: requires -metrics"},
		{[]string{"-metrics-interval", "5us", "-metrics-out", "x"}, false, "5us", "bad -metrics-interval: requires -metrics"},
		{nil, true, "0s", "bad -metrics-interval: must be positive"},
	} {
		if _, err := MetricsInterval(flags(t, tc.args...), tc.on, tc.val); err == nil ||
			!strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want %q", tc.args, err, tc.want)
		}
	}
}

func TestPanics(t *testing.T) {
	errs := []error{nil, errors.New("stall"), &exp.PanicError{Value: "boom"}}
	if got := Panics(errs); got != 1 {
		t.Errorf("Panics = %d, want 1", got)
	}
}

// TestInterruptContext: the first SIGINT cancels the context instead of
// killing the process; stop detaches the handler.
func TestInterruptContext(t *testing.T) {
	ctx, stop := InterruptContext()
	defer stop()
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("SIGINT did not cancel the context")
	}
}
