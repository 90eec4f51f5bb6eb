package exp

import (
	"reflect"
	"testing"

	"memnet/internal/core"
	"memnet/internal/dram"
	"memnet/internal/fault"
	"memnet/internal/sim"
	"memnet/internal/workload"
)

// keyObservational lists the Spec fields key() leaves out on purpose,
// each with its reason. Every other field must change the key.
var keyObservational = map[string]string{
	"AuditEvery": "the auditor only reads state, so audited and unaudited runs are one run and share cache and journal entries",
}

// keyPartners sets, on both sides of a perturbation, the field another
// field is inert without.
var keyPartners = map[string]func(*Spec){
	"MaxRetries": func(s *Spec) { s.RequestTimeout = 2 * sim.Microsecond },
}

// TestKeyCoversEveryField walks Spec's fields and perturbs each one: it
// must change Key(), or sit on keyObservational. A field added later
// without either fails here, so two different runs can never share a
// cache entry or a journal line by accident.
func TestKeyCoversEveryField(t *testing.T) {
	typ := reflect.TypeOf(Spec{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		base := tinySpec(core.PolicyAware, MechVWLROO)
		if partner := keyPartners[f.Name]; partner != nil {
			partner(&base)
		}
		moved := base
		if !perturb(reflect.ValueOf(&moved).Elem().Field(i)) {
			t.Errorf("Spec.%s: no perturbation for type %s; teach perturb it", f.Name, f.Type)
			continue
		}
		changed := moved.Key() != base.Key()
		_, observational := keyObservational[f.Name]
		switch {
		case !changed && !observational:
			t.Errorf("Spec.%s does not reach Key(): add it to key() or to keyObservational with a reason", f.Name)
		case changed && observational:
			t.Errorf("Spec.%s is listed as observational but changes Key()", f.Name)
		}
	}
}

// perturb sets v to another value of its type, reporting false for a
// type it does not know.
func perturb(v reflect.Value) bool {
	switch x := v.Addr().Interface().(type) {
	case **workload.Profile:
		p := **x
		p.Name += "-moved"
		*x = &p
	case *Mech:
		x.ROO = !x.ROO
	case *fault.Scenario:
		*x = sweepScenario()
	case **dram.Config:
		c := dram.DefaultConfig()
		*x = &c
	default:
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case reflect.Float64:
			v.SetFloat(v.Float() + 1)
		default:
			return false
		}
	}
	return true
}

// TestSettingsApplyFillsOnlyUnsetFields: each run-wide setting fills the
// spec field left at zero and leaves a set one alone; zero settings
// change nothing.
func TestSettingsApplyFillsOnlyUnsetFields(t *testing.T) {
	st := Settings{
		SimTime: 7 * sim.Microsecond, Warmup: 3 * sim.Microsecond, Watchdog: true,
		Faults: sweepScenario(), Retrain: sim.Microsecond, CRCRetries: 4, Audit: 64,
		Metrics: 10 * sim.Microsecond,
	}
	want := Spec{
		SimTime: st.SimTime, Warmup: st.Warmup, Watchdog: true, Faults: st.Faults,
		RetrainLatency: st.Retrain, CRCRetryLimit: 4, AuditEvery: 64, MetricsInterval: st.Metrics,
	}
	if got := st.Apply(Spec{}); !reflect.DeepEqual(got, want) {
		t.Errorf("unset spec: got %+v, want %+v", got, want)
	}
	set := Spec{
		SimTime: 1, Warmup: 1, Watchdog: true,
		Faults:         fault.Scenario{Seed: 1, Events: []fault.Event{{Kind: fault.LinkFail}}},
		RetrainLatency: 1, CRCRetryLimit: 1, AuditEvery: -1, MetricsInterval: 1,
	}
	if got := st.Apply(set); !reflect.DeepEqual(got, set) {
		t.Errorf("set spec changed: got %+v, want %+v", got, set)
	}
	if got := (Settings{}).Apply(Spec{}); !reflect.DeepEqual(got, Spec{}) {
		t.Errorf("zero settings filled %+v", got)
	}
}
