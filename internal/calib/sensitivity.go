// Parameter-sensitivity sweeps: perturb each declared parameter ±10%
// around a fixed operating point, measure the output elasticity
// d(ln output)/d(ln param), and check it against the band the reference
// table declares. An elasticity of ~0 where the band demands otherwise
// means the parameter is dead — the config knob exists but the
// simulation never feels it.

package calib

import (
	"context"
	"fmt"
	"math"
	"strings"

	"memnet/internal/core"
	"memnet/internal/exp"
	"memnet/internal/link"
	"memnet/internal/metrics"
	"memnet/internal/sim"
	"memnet/internal/topology"
	"memnet/internal/viz"
	"memnet/internal/workload"
)

// The sweep's operating point durations. These are calibration defaults,
// independent of the experiment CLI's.
const (
	DefaultSensSimTime = 150 * sim.Microsecond
	DefaultSensWarmup  = 40 * sim.Microsecond
)

// sensProfile is the sweep's synthetic workload: an all-read ON/OFF
// burst train whose OFF gap (~3.9 us) clears the 2048 ns full-ROO idle
// threshold, so the links sleep between bursts and every burst's requests
// queue behind one wakeup. With PolicyNone there is no per-epoch mode
// controller to re-absorb a perturbed wakeup latency (the adaptive
// policies compensate by picking a different ROO mode, flattening the
// response), so the wakeup axis stays smoothly observable in average
// latency — under the paper's denser continuous mixes its signal drowns
// in queueing noise and a dead wakeup parameter would go undetected.
var sensProfile = &workload.Profile{
	Name:              "calib.sparse",
	Class:             "cloud",
	Apps:              "synthetic sparse calibration trace",
	FootprintGB:       8,
	AccessCDF:         []workload.CDFPoint{{GB: 8, Cum: 1}},
	ReadFraction:      1.0,
	TargetChannelUtil: 0.05,
	BurstPeriod:       4 * sim.Microsecond,
	BurstDuty:         0.02,
}

// sweepFactors are the perturbation steps applied to each parameter. The
// center cell (×1.00) is the unperturbed base spec, so every axis shares
// one run of the operating point.
var sweepFactors = [5]float64{0.90, 0.95, 1.00, 1.05, 1.10}

// baseSpec is the unperturbed operating point under the model under test.
func baseSpec(m *model, simTime, warmup sim.Duration) (exp.Spec, error) {
	if err := sensProfile.Validate(); err != nil {
		return exp.Spec{}, err
	}
	s := exp.Spec{
		Workload: sensProfile,
		Topology: topology.DaisyChain,
		Size:     exp.Small,
		Mech:     exp.MechROO,
		Policy:   core.PolicyNone,
		SimTime:  simTime,
		Warmup:   warmup,
	}
	// The model under test rides along on every cell, so the sweep
	// perturbs around *its* operating point, not the published one.
	cfg := m.dram
	s.DRAM = &cfg
	s.PeakWatts = m.pm.PeakWatts
	return s, nil
}

// applyAxis perturbs one cell of the sweep: the band's parameter scaled
// by factor f, every other knob untouched.
func applyAxis(s *exp.Spec, m *model, param string, f float64) error {
	switch {
	case param == "link.wakeup":
		s.Wakeup = sim.Duration(float64(link.WakeupDefault)*f + 0.5)
	case param == "power.peak":
		s.PeakWatts = m.pm.PeakWatts * f
	case strings.HasPrefix(param, "dram."):
		cfg, err := m.dram.Scaled(strings.TrimPrefix(param, "dram."), f)
		if err != nil {
			return err
		}
		s.DRAM = &cfg
	default:
		return fmt.Errorf("calib: band parameter %q has no sweep axis", param)
	}
	return nil
}

// outputOf extracts a band's observed output from one run.
func outputOf(r exp.Result, output string) float64 {
	if output == "power" {
		return r.Power.Total()
	}
	return r.AvgReadLatency.Nanoseconds()
}

// runSensitivity sweeps every band and renders the error-band figure.
// The cell set is deduplicated: all axes share the single unperturbed
// center run, so b bands cost 4b+1 simulations, executed by exp.RunSpecs
// with deterministic, jobs-independent results.
func runSensitivity(bands []Band, m *model, jobs int, simTime, warmup sim.Duration) ([]BandResult, string, error) {
	if len(bands) == 0 {
		return nil, "", nil
	}
	base, err := baseSpec(m, simTime, warmup)
	if err != nil {
		return nil, "", err
	}
	specs := []exp.Spec{base} // index 0 = shared center cell
	// cell[i][j] indexes the run for band i at sweepFactors[j].
	cell := make([][5]int, len(bands))
	for i, b := range bands {
		for j, f := range sweepFactors {
			if f == 1.0 {
				cell[i][j] = 0
				continue
			}
			s := base
			if err := applyAxis(&s, m, b.Param, f); err != nil {
				return nil, "", err
			}
			cell[i][j] = len(specs)
			specs = append(specs, s)
		}
	}
	results, errs := exp.RunSpecs(context.Background(), specs, jobs, nil)
	if err := exp.FirstErr(specs, errs); err != nil {
		return nil, "", fmt.Errorf("calib: sensitivity sweep: %w", err)
	}
	out := make([]BandResult, len(bands))
	dump := &metrics.Dump{Ticks: len(sweepFactors)}
	for i, b := range bands {
		ys := make([]float64, len(sweepFactors))
		for j := range sweepFactors {
			ys[j] = outputOf(results[cell[i][j]], b.Output)
		}
		e := math.NaN()
		if lo, hi := ys[0], ys[len(ys)-1]; lo > 0 && hi > 0 {
			e = math.Log(hi/lo) / math.Log(sweepFactors[len(sweepFactors)-1]/sweepFactors[0])
		}
		out[i] = BandResult{
			Band:       b,
			Ys:         ys,
			Elasticity: e,
			OK:         !math.IsNaN(e) && e >= b.Min && e <= b.Max,
		}
		dump.Series = append(dump.Series, metrics.SeriesDump{
			Name:    b.Param + " -> " + b.Output,
			Kind:    "gauge",
			Samples: ys,
		})
	}
	figure := "sensitivity figure: each series is the measured output as its parameter\n" +
		"sweeps x0.90, x0.95, x1.00, x1.05, x1.10 (ticks left to right; latency in ns, power in W)\n" +
		viz.RenderTimeSeries(dump)
	return out, figure, nil
}
