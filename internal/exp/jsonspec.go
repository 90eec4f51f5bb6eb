package exp

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"memnet/internal/core"
	"memnet/internal/metrics"
	"memnet/internal/sim"
	"memnet/internal/topology"
	"memnet/internal/workload"
)

// SpecJSON is the declarative (file-friendly) form of a Spec, used by
// `memnetsim -config`. All fields are strings/numbers so configuration
// files stay readable:
//
//	{
//	  "runs": [
//	    {"workload": "mixB", "topology": "star", "size": "small",
//	     "mechanism": "VWL+ROO", "policy": "aware", "alpha": 0.05,
//	     "simtime": "400us", "warmup": "100us"}
//	  ]
//	}
type SpecJSON struct {
	Workload   string  `json:"workload"`
	Topology   string  `json:"topology"`
	Size       string  `json:"size"`
	Mechanism  string  `json:"mechanism"`
	Policy     string  `json:"policy"`
	Alpha      float64 `json:"alpha"`
	WakeupNS   int     `json:"wakeup_ns"`
	SimTime    string  `json:"simtime"`
	Warmup     string  `json:"warmup"`
	Interleave bool    `json:"interleave"`
}

// BatchJSON is a config file: a list of runs.
type BatchJSON struct {
	Runs []SpecJSON `json:"runs"`
}

// FieldError is a spec that Axes.Parse or Spec.Validate rejected. Field
// names the field as a config file or memnetd submission spells it
// ("alpha", "simtime", "wakeup_ns"); cli.FlagError maps it to a flag.
type FieldError struct {
	Field string
	Err   error
}

// Error implements error.
func (e *FieldError) Error() string { return "exp: bad " + e.Field + ": " + e.Err.Error() }

// Axes is the text form of the five model axes that name a run. An
// empty axis takes its default (star, small, FP, none), except that an
// empty Workload parses to no workload: trace replay brings its own
// traffic.
type Axes struct {
	Workload, Topology, Size, Mechanism, Policy string
}

// The labels Axes.Parse accepts, "" being the default.
var (
	sizes = map[string]NetworkSize{"": Small, "small": Small, "big": Big}
	mechs = map[string]Mech{"": MechFP, "FP": MechFP, "VWL": MechVWL, "ROO": MechROO,
		"VWL+ROO": MechVWLROO, "DVFS": MechDVFS, "DVFS+ROO": MechDVFSROO}
	policies = map[string]core.PolicyKind{"": core.PolicyNone, "none": core.PolicyNone,
		"fp": core.PolicyNone, "full-power": core.PolicyNone, "unaware": core.PolicyUnaware,
		"network-unaware": core.PolicyUnaware, "aware": core.PolicyAware,
		"network-aware": core.PolicyAware, "static": core.PolicyStatic}
)

// Parse is the one parse of the model axes, called by ToSpec and by the
// flags of memnetsim, memnetviz and memnettrace, so a name means the
// same run on every path. A failure is a *FieldError naming the axis.
func (a Axes) Parse() (Spec, error) {
	spec := Spec{Topology: topology.Star}
	var err error
	if a.Workload != "" {
		if spec.Workload, err = workload.ByName(a.Workload); err != nil {
			return spec, &FieldError{"workload", err}
		}
	}
	if a.Topology != "" {
		if spec.Topology, err = topology.ParseKind(a.Topology); err != nil {
			return spec, &FieldError{"topology", err}
		}
	}
	var ok bool
	if spec.Size, ok = sizes[a.Size]; !ok {
		return spec, &FieldError{"size", fmt.Errorf("unknown size %q (small, big)", a.Size)}
	}
	if spec.Mech, ok = mechs[a.Mechanism]; !ok {
		return spec, &FieldError{"mechanism", fmt.Errorf(
			"unknown mechanism %q (FP, VWL, ROO, VWL+ROO, DVFS, DVFS+ROO)", a.Mechanism)}
	}
	if spec.Policy, ok = policies[a.Policy]; !ok {
		return spec, &FieldError{"policy", fmt.Errorf("unknown policy %q (none, unaware, aware, static)", a.Policy)}
	}
	return spec, nil
}

// ParseSimDuration converts "400us"-style strings to simulated time.
func ParseSimDuration(s string) (sim.Duration, error) {
	if s == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	return sim.Duration(d.Nanoseconds()) * sim.Nanosecond, nil
}

// Validate is the one range check of a spec, however it came in. ToSpec
// runs it (memnetsim -config, memnetd) and so does Build (exp.Run, the
// sweep pool, memnetsim, memnetviz, memnettrace record). Zero keeps its meaning of "default" or "off". A failure is a
// *FieldError.
func (s Spec) Validate() error {
	if s.Workload == nil {
		return &FieldError{"workload", errors.New("missing")}
	}
	return s.validate()
}

// validate is Validate with the workload optional, for BuildNetwork.
func (s Spec) validate() error {
	if s.Workload != nil {
		if err := s.Workload.Validate(); err != nil {
			return &FieldError{"workload", err}
		}
	}
	if !(s.Alpha >= 0) {
		return &FieldError{"alpha", fmt.Errorf("slowdown factor must be non-negative, got %g", s.Alpha)}
	}
	if s.Alpha == 0 && s.Policy != core.PolicyNone && s.Policy != core.PolicyStatic {
		return &FieldError{"alpha", fmt.Errorf("policy %v needs a positive alpha", s.Policy)}
	}
	for _, f := range []struct {
		field string
		v     int64
	}{
		{"wakeup_ns", int64(s.Wakeup)}, {"simtime", int64(s.SimTime)}, {"warmup", int64(s.Warmup)},
		{"metrics_interval", int64(s.MetricsInterval)},
	} {
		if f.v < 0 {
			return &FieldError{f.field, errors.New("must be non-negative")}
		}
	}
	if s.MetricsInterval > 0 {
		simTime := s.resolved().SimTime
		if n := simTime / s.MetricsInterval; n < 1 || n > metrics.MaxTicks {
			return &FieldError{"metrics_interval", fmt.Errorf(
				"sampling every %s over the %s measured interval takes %d samples, want 1 to %d",
				s.MetricsInterval, simTime, n, metrics.MaxTicks)}
		}
	}
	if s.DRAM != nil {
		if err := s.DRAM.Validate(); err != nil {
			return &FieldError{"dram", err}
		}
	}
	if !(s.PeakWatts >= 0) {
		return &FieldError{"peak_watts", fmt.Errorf("must be non-negative, got %g", s.PeakWatts)}
	}
	return nil
}

// ToSpec resolves the declarative form: the one parse of its axes, then
// the one range check.
func (sj SpecJSON) ToSpec() (Spec, error) {
	spec, err := Axes{sj.Workload, sj.Topology, sj.Size, sj.Mechanism, sj.Policy}.Parse()
	if err != nil {
		return spec, err
	}
	spec.Alpha = sj.Alpha
	spec.Wakeup = sim.Duration(sj.WakeupNS) * sim.Nanosecond
	if spec.SimTime, err = ParseSimDuration(sj.SimTime); err != nil {
		return spec, &FieldError{"simtime", err}
	}
	if spec.Warmup, err = ParseSimDuration(sj.Warmup); err != nil {
		return spec, &FieldError{"warmup", err}
	}
	spec.Interleave = sj.Interleave
	return spec, spec.Validate()
}

// LoadBatch parses a JSON config stream into runnable specs.
func LoadBatch(r io.Reader) ([]Spec, error) {
	var batch BatchJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&batch); err != nil {
		return nil, fmt.Errorf("exp: parsing config: %w", err)
	}
	if len(batch.Runs) == 0 {
		return nil, fmt.Errorf("exp: config has no runs")
	}
	specs := make([]Spec, 0, len(batch.Runs))
	for i, sj := range batch.Runs {
		spec, err := sj.ToSpec()
		if err != nil {
			return nil, fmt.Errorf("exp: run %d: %w", i, err)
		}
		specs = append(specs, spec)
	}
	return specs, nil
}
