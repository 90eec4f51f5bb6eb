package exp

import (
	"encoding/json"
	"reflect"
	"testing"

	"memnet/internal/core"
	"memnet/internal/dram"
	"memnet/internal/link"
	"memnet/internal/sim"
	"memnet/internal/workload"
)

// keyObservational lists the Spec fields Key() leaves out on purpose,
// each with its reason. Every other field must change the key.
var keyObservational = map[string]string{
	"AuditEvery": "the auditor only reads state, so audited and unaudited runs are one run and share cache and journal entries",
}

// TestKeyCoversEveryField walks Spec's fields and perturbs each one: it
// must change Key(), or sit on keyObservational. A field added later
// without either fails here, so two different runs can never share a
// cache entry or a journal line by accident. Every perturbed spec must
// also keep its key through a journal line's JSON round trip.
func TestKeyCoversEveryField(t *testing.T) {
	typ := reflect.TypeOf(Spec{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		base := tinySpec(core.PolicyAware, MechVWLROO)
		moved := base
		if !perturb(reflect.ValueOf(&moved).Elem().Field(i)) {
			t.Errorf("Spec.%s: no perturbation for type %s; teach perturb it", f.Name, f.Type)
			continue
		}
		changed := moved.Key() != base.Key()
		_, observational := keyObservational[f.Name]
		switch {
		case !changed && !observational:
			t.Errorf("Spec.%s does not reach Key(): add it to Key() or to keyObservational with a reason", f.Name)
		case changed && observational:
			t.Errorf("Spec.%s is listed as observational but changes Key()", f.Name)
		}
		if got := journalRoundTrip(t, moved).Key(); got != moved.Key() {
			t.Errorf("Spec.%s: key changed across the journal round trip:\n%s\n%s", f.Name, moved.Key(), got)
		}
	}
}

// journalRoundTrip returns s as a journal line carries it: the resolved
// spec of a result, marshaled and decoded.
func journalRoundTrip(t testing.TB, s Spec) Spec {
	t.Helper()
	raw, err := json.Marshal(Result{Spec: s.resolved()})
	if err != nil {
		t.Fatalf("marshal %s: %v", s.Key(), err)
	}
	var back Result
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal %s: %v", s.Key(), err)
	}
	return back.Spec
}

// TestKeyOneSpellingOneKey: a zero field that stands for a default and
// the default itself are one run, so they share a key. A field the model
// ignores is not erased: α under PolicyNone still separates keys.
func TestKeyOneSpellingOneKey(t *testing.T) {
	defDRAM := dram.DefaultConfig()
	for name, set := range map[string]func(*Spec){
		"SimTime":   func(s *Spec) { s.SimTime = DefaultSimTime },
		"Wakeup":    func(s *Spec) { s.Wakeup = link.WakeupDefault },
		"DRAM":      func(s *Spec) { s.DRAM = &defDRAM },
		"PeakWatts": func(s *Spec) { s.PeakWatts = 13.4 },
	} {
		zero := tinySpec(core.PolicyAware, MechVWLROO)
		zero.SimTime = 0
		spelled := zero
		set(&spelled)
		if zero.Key() != spelled.Key() {
			t.Errorf("%s: zero and default spellings got two keys:\n%s\n%s", name, zero.Key(), spelled.Key())
		}
	}
	a, b := tinySpec(core.PolicyNone, MechFP), tinySpec(core.PolicyNone, MechFP)
	a.Alpha, b.Alpha = 0.01, 0.02
	if a.Key() == b.Key() {
		t.Errorf("alpha 0.01 and 0.02 under PolicyNone share key %s", a.Key())
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
	case **dram.Config:
		c := dram.DefaultConfig() // nil and the default are one run
		c.TCL *= 2
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
		SimTime: 7 * sim.Microsecond, Warmup: 3 * sim.Microsecond, Audit: 64,
		Metrics: 10 * sim.Microsecond,
	}
	want := Spec{
		SimTime: st.SimTime, Warmup: st.Warmup, AuditEvery: 64, MetricsInterval: st.Metrics,
	}
	if got := st.Apply(Spec{}); !reflect.DeepEqual(got, want) {
		t.Errorf("unset spec: got %+v, want %+v", got, want)
	}
	set := Spec{SimTime: 1, Warmup: 1, AuditEvery: -1, MetricsInterval: 1}
	if got := st.Apply(set); !reflect.DeepEqual(got, set) {
		t.Errorf("set spec changed: got %+v, want %+v", got, set)
	}
	if got := (Settings{}).Apply(Spec{}); !reflect.DeepEqual(got, Spec{}) {
		t.Errorf("zero settings filled %+v", got)
	}
}
