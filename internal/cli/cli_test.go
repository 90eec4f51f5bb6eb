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
	"memnet/internal/dist"
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
	reg := metrics.New(k, metrics.Config{Interval: sim.Microsecond})
	n := 0
	reg.Gauge("test.gauge", func() float64 { n++; return float64(n) })
	reg.Start(3 * sim.Microsecond)
	k.Run(3 * sim.Microsecond)
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

func TestLease(t *testing.T) {
	if d, err := Lease("", ""); err != nil || d != dist.DefaultLeaseTTL {
		t.Errorf(`Lease("") = %v, %v; want the default`, d, err)
	}
	if d, err := Lease("3s", ":0"); err != nil || d != 3*time.Second {
		t.Errorf(`Lease("3s") = %v, %v`, d, err)
	}
	for _, tc := range []struct{ lease, coord, want string }{
		{"bogus", ":0", "bad -lease: time: invalid duration"},
		{"0s", ":0", "bad -lease: must be positive, got 0s"},
		{"-1s", ":0", "bad -lease: must be positive"},
		{"3s", "", "bad -lease: requires -coordinator"},
	} {
		if _, err := Lease(tc.lease, tc.coord); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Lease(%q, %q): err = %v, want %q", tc.lease, tc.coord, err, tc.want)
		}
	}
}

func TestDurations(t *testing.T) {
	if d, err := PositiveDuration("retrain", "1us"); err != nil || d != sim.Microsecond {
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
		{PositiveDuration, "retrain", "bogus", "bad -retrain: time: invalid duration"},
		{PositiveDuration, "retrain", "0s", "bad -retrain: must be positive, got 0s"},
		{PositiveDuration, "retrain", "-1us", "bad -retrain: must be positive, got -1us"},
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
	if st, err := Common(1, 0, 0, ""); err != nil || st.Retrain != 0 || st.CRCRetries != 0 || st.Audit != -1 {
		t.Errorf("defaults: %+v, %v", st, err)
	}
	if st, err := Common(2, 64, 4, "2us"); err != nil || st.Retrain != 2*sim.Microsecond || st.CRCRetries != 4 || st.Audit != 64 {
		t.Errorf("valid: %+v, %v", st, err)
	}
	for _, tc := range []struct {
		jobs, audit, crc int
		retrain, want    string
	}{
		{0, 0, 0, "", "bad -jobs"},
		{1, -1, 0, "", "bad -audit"},
		{1, 0, -1, "", "bad -crcretries"},
		{1, 0, 0, "0s", "bad -retrain"},
	} {
		if _, err := Common(tc.jobs, tc.audit, tc.crc, tc.retrain); err == nil || !strings.Contains(err.Error(), tc.want) {
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

func TestCheckWorker(t *testing.T) {
	if err := CheckWorker(flags(t), "", "config", ""); err != nil {
		t.Errorf("plain worker rejected: %v", err)
	}
	for _, tc := range []struct {
		args              []string
		coord, work, want string
	}{
		{nil, ":0", "", "bad -worker: mutually exclusive with -coordinator and -config"},
		{nil, "", "batch.json", "bad -worker: mutually exclusive with -coordinator and -config"},
		{[]string{"-memprofile", "m"}, "", "", "bad -memprofile: not supported with -worker"},
	} {
		if err := CheckWorker(flags(t, tc.args...), tc.coord, "config", tc.work); err == nil ||
			!strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%+v: err = %v, want %q", tc, err, tc.want)
		}
	}
}

// TestCoordinatorAndWorker runs one cell through a real coordinator and
// an in-process worker: the worker exits cleanly once Close declares the
// session over, and the coordinator's result is the local one.
func TestCoordinatorAndWorker(t *testing.T) {
	if _, err := StartCoordinator("256.0.0.1:0", time.Second, nil, nil); err == nil ||
		!strings.Contains(err.Error(), "bad -coordinator") {
		t.Errorf("bad address: err = %v", err)
	}
	wl, err := workload.ByName("mixG")
	if err != nil {
		t.Fatal(err)
	}
	spec := exp.Spec{Workload: wl, Mech: exp.MechFP, SimTime: 10 * sim.Microsecond, Warmup: 2 * sim.Microsecond, AuditEvery: -1}
	want, err := exp.Run(spec)
	if err != nil {
		t.Fatal(err)
	}

	dc, err := StartCoordinator("127.0.0.1:0", 400*time.Millisecond, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- RunWorker("http://"+dc.Addr(), filepath.Join(t.TempDir(), "salvage.jsonl")) }()
	results, errs, err := dc.Sweep([]exp.Spec{spec})
	dc.Close()
	if err != nil || errs[0] != nil {
		t.Fatalf("sweep: %v, cell: %v", err, errs[0])
	}
	if results[0].Events != want.Events || results[0].Throughput != want.Throughput {
		t.Errorf("distributed cell differs from the local run: %d events vs %d", results[0].Events, want.Events)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("worker: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("worker did not exit after the session closed")
	}

	if err := RunWorker("http://127.0.0.1:1", filepath.Join(t.TempDir(), "missing", "j")); err == nil ||
		!strings.Contains(err.Error(), "bad -journal") {
		t.Errorf("bad fallback journal: err = %v", err)
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
