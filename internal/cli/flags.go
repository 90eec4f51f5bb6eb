package cli

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"memnet/internal/exp"
	"memnet/internal/metrics"
	"memnet/internal/sim"
)

// PositiveDuration parses the value s of flag -name as a positive
// simulated duration.
func PositiveDuration(name, s string) (sim.Duration, error) { return duration(name, s, false) }

// NonNegativeDuration parses the value s of flag -name as a simulated
// duration that may be zero (a warmup).
func NonNegativeDuration(name, s string) (sim.Duration, error) { return duration(name, s, true) }

func duration(name, s string, zeroOK bool) (sim.Duration, error) {
	d, err := exp.ParseSimDuration(s)
	switch {
	case err != nil:
		return 0, fmt.Errorf("bad -%s: %v", name, err)
	case zeroOK && d < 0:
		return 0, fmt.Errorf("bad -%s: must be non-negative, got %s", name, s)
	case !zeroOK && d <= 0:
		return 0, fmt.Errorf("bad -%s: must be positive, got %s", name, s)
	}
	return d, nil
}

// Forbid fails naming the first of the flags names that was set on fs,
// with why as the reason; it returns nil when none was.
func Forbid(fs *flag.FlagSet, why string, names ...string) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		for _, n := range names {
			if err == nil && f.Name == n {
				err = fmt.Errorf("bad -%s: %s", n, why)
			}
		}
	})
	return err
}

// Jobs validates -jobs, the parallel worker count.
func Jobs(n int) error {
	if n < 1 {
		return fmt.Errorf("bad -jobs: need at least 1 worker, got %d", n)
	}
	return nil
}

// Common validates the run flags both batch commands take — -jobs,
// -audit, -crcretries and -retrain — and returns them as run-wide
// settings, -audit in Settings.Audit's encoding (0 = off, N = stride)
// and an empty -retrain as 0, the model default.
func Common(jobs, audit, crcRetries int, retrain string) (st exp.Settings, err error) {
	st = exp.Settings{Audit: audit, CRCRetries: crcRetries}
	if err := Jobs(jobs); err != nil {
		return st, err
	}
	if audit < 0 {
		return st, fmt.Errorf("bad -audit: stride must be >= 0 (0 disables), got %d", audit)
	}
	if audit == 0 {
		st.Audit = -1
	}
	if crcRetries < 0 {
		return st, fmt.Errorf("bad -crcretries: must be non-negative (0 = model default), got %d", crcRetries)
	}
	if retrain != "" {
		st.Retrain, err = PositiveDuration("retrain", retrain)
	}
	return st, err
}

// flagNames maps an exp.FieldError's field to its flag where the names
// differ.
var flagNames = map[string]string{"workload": "wl", "topology": "topo", "mechanism": "mech",
	"wakeup_ns": "wakeup", "metrics_interval": "metrics-interval"}

// FlagError names the flag behind a field exp.Axes.Parse or
// exp.Spec.Validate rejected ("bad -alpha: …"); other errors pass
// through.
func FlagError(err error) error {
	var fe *exp.FieldError
	if !errors.As(err, &fe) {
		return err
	}
	name := fe.Field
	if f, ok := flagNames[name]; ok {
		name = f
	}
	return fmt.Errorf("bad -%s: %v", name, fe.Err)
}

// MetricsInterval resolves -metrics-interval s: the sampling period when
// -metrics is on, else 0 — and then neither -metrics-interval nor
// -metrics-out may be set.
func MetricsInterval(fs *flag.FlagSet, on bool, s string) (sim.Duration, error) {
	if !on {
		return 0, Forbid(fs, "requires -metrics", "metrics-interval", "metrics-out")
	}
	return PositiveDuration("metrics-interval", s)
}

// WriteMetrics exports sampled metrics to path, picking the format from
// the extension: .csv gets CSV, anything else JSON lines.
func WriteMetrics(path string, entries []metrics.Entry) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("bad -metrics-out: %v", err)
	}
	if strings.HasSuffix(path, ".csv") {
		err = metrics.WriteCSV(f, entries)
	} else {
		err = metrics.WriteJSONL(f, entries)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write %s: %v", path, err)
	}
	return nil
}
