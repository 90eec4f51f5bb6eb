package main

import (
	"errors"
	"flag"
	"fmt"

	"memnet/internal/calib"
	"memnet/internal/cli"
)

// runCalibrate executes the model-calibration harness and prints the
// pinned accuracy report. The report is a pure function of the model and
// the reference table — no wall time, no host details — so results/
// calibration.txt can be committed as a golden and CI can fail on drift.
// The harness has its own operating-point durations (150us/40us): the
// CLI's -simtime/-warmup defaults are ignored unless set explicitly.
func runCalibrate(jobs int, simtimeF, warmupF, outDir string) error {
	if err := cli.Jobs(jobs); err != nil {
		return err
	}
	opts := calib.Options{Jobs: jobs}
	var err error
	flag.Visit(func(f *flag.Flag) {
		if err != nil {
			return
		}
		switch f.Name {
		case "simtime":
			opts.SimTime, err = cli.PositiveDuration("simtime", simtimeF)
		case "warmup":
			opts.Warmup, err = cli.NonNegativeDuration("warmup", warmupF)
		case "run", "coordinator", "worker", "list":
			err = fmt.Errorf("bad -calibrate: mutually exclusive with -%s", f.Name)
		}
	})
	if err != nil {
		return err
	}
	rep, err := calib.Evaluate(opts)
	if err != nil {
		return fmt.Errorf("calibrate: %v", err)
	}
	out := rep.Render()
	fmt.Print(out)
	if err := save(outDir, "calibration.txt", out); err != nil {
		return err
	}
	if !rep.Pass() {
		return errors.New("calibrate: model outside published tolerances (see report above)")
	}
	return nil
}
