package exp

import (
	"strings"
	"testing"

	"memnet/internal/core"
	"memnet/internal/sim"
	"memnet/internal/topology"
)

func TestLoadBatch(t *testing.T) {
	cfg := `{
	  "runs": [
	    {"workload": "mixB", "topology": "star", "size": "small",
	     "mechanism": "VWL+ROO", "policy": "aware", "alpha": 0.05,
	     "simtime": "400us", "warmup": "100us"},
	    {"workload": "sp.D", "topology": "daisychain", "size": "big",
	     "mechanism": "ROO", "policy": "unaware", "alpha": 0.025,
	     "wakeup_ns": 20}
	  ]
	}`
	specs, err := LoadBatch(strings.NewReader(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("%d specs", len(specs))
	}
	s := specs[0]
	if s.Workload.Name != "mixB" || s.Topology != topology.Star || s.Size != Small ||
		s.Mech != MechVWLROO || s.Policy != core.PolicyAware || s.Alpha != 0.05 {
		t.Fatalf("spec 0 = %+v", s)
	}
	if s.SimTime != 400*sim.Microsecond || s.Warmup != 100*sim.Microsecond {
		t.Fatalf("times: %v/%v", s.SimTime, s.Warmup)
	}
	if specs[1].Wakeup != 20*sim.Nanosecond || specs[1].Size != Big {
		t.Fatalf("spec 1 = %+v", specs[1])
	}
}

func TestLoadBatchDefaults(t *testing.T) {
	specs, err := LoadBatch(strings.NewReader(`{"runs":[{"workload":"mixG"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	s := specs[0]
	if s.Topology != topology.Star || s.Mech != MechFP || s.Policy != core.PolicyNone {
		t.Fatalf("defaults = %+v", s)
	}
}

func TestLoadBatchErrors(t *testing.T) {
	cases := []string{
		`not json`,
		`{"runs": []}`,
		`{"runs": [{"workload": "nope"}]}`,
		`{"runs": [{"workload": "mixB", "topology": "mesh"}]}`,
		`{"runs": [{"workload": "mixB", "mechanism": "XXL"}]}`,
		`{"runs": [{"workload": "mixB", "policy": "chaotic"}]}`,
		`{"runs": [{"workload": "mixB", "policy": "aware"}]}`, // alpha missing
		`{"runs": [{"workload": "mixB", "size": "huge"}]}`,
		`{"runs": [{"workload": "mixB", "simtime": "fast"}]}`,
		`{"runs": [{"workload": "mixB", "unknown_field": 1}]}`,
		// Out of range: once admitted, these ran the defaults instead.
		`{"runs": [{"workload": "mixB", "simtime": "-1us"}]}`,
		`{"runs": [{"workload": "mixB", "warmup": "-3us"}]}`,
		`{"runs": [{"workload": "mixB", "wakeup_ns": -5}]}`,
	}
	for i, c := range cases {
		if _, err := LoadBatch(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted: %s", i, c)
		}
	}
}

func TestParseHelpers(t *testing.T) {
	if s, err := (Axes{Mechanism: "DVFS+ROO", Policy: "network-aware"}).Parse(); err != nil ||
		s.Mech != MechDVFSROO || s.Policy != core.PolicyAware {
		t.Errorf("Axes.Parse long forms: %+v %v", s, err)
	}
	if s, err := (Axes{}).Parse(); err != nil || s.Workload != nil || s.Topology != topology.Star ||
		s.Size != Small || s.Mech != MechFP || s.Policy != core.PolicyNone {
		t.Errorf("Axes.Parse defaults: %+v %v", s, err)
	}
	if d, err := ParseSimDuration(""); err != nil || d != 0 {
		t.Errorf("empty duration: %v %v", d, err)
	}
}
