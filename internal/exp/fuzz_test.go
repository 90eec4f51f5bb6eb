package exp

import (
	"bytes"
	"testing"
)

// FuzzLoadBatch: any byte string either fails to parse with an error
// (never a panic), or yields specs that pass the range check Build runs
// — so memnetd never admits a run that fails on a range rule — and
// whose identity keys are stable: the same bytes parsed twice produce
// the same runnable sweep, resolving a spec keeps its key, and so does
// the JSON round trip a journal line puts its result through. Key()
// touches every resolved field, so it doubles as a nil-safety probe on
// the parsed specs.
func FuzzLoadBatch(f *testing.F) {
	for _, seed := range []string{
		`{"runs":[{"workload":"mixB"}]}`,
		`{"runs":[{"workload":"mixA","topology":"daisychain","size":"big",` +
			`"mechanism":"VWL","policy":"unaware","alpha":0.05,` +
			`"simtime":"60us","warmup":"20us","wakeup_ns":20,"interleave":true}]}`,
		`{"runs":[{"workload":"mixB","policy":"aware","alpha":0.02},` +
			`{"workload":"mixC","mechanism":"DVFS+ROO","policy":"none"}]}`,
		`{"runs":[]}`,
		`{"runs":[{"workload":"nosuch"}]}`,
		`{"runs":[{"workload":"mixB","policy":"aware","alpha":0}]}`,
		`{"runs":[{"workload":"mixB","simtime":"-4us"}]}`,
		`{"extra":true}`,
		`{"runs":`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		specs, err := LoadBatch(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(specs) == 0 {
			t.Fatal("LoadBatch returned no specs and no error")
		}
		keys := make([]string, len(specs))
		for i, s := range specs {
			if err := s.Validate(); err != nil {
				t.Fatalf("run %d: LoadBatch accepted a spec Build rejects: %v", i, err)
			}
			keys[i] = s.Key()
			if k := s.resolved().Key(); k != keys[i] {
				t.Errorf("run %d: resolving changed the key: %q vs %q", i, keys[i], k)
			}
			if k := journalRoundTrip(t, s).Key(); k != keys[i] {
				t.Errorf("run %d: key changed across the journal round trip: %q vs %q", i, keys[i], k)
			}
		}
		again, err := LoadBatch(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("second parse of accepted input failed: %v", err)
		}
		if len(again) != len(specs) {
			t.Fatalf("parse is unstable: %d specs then %d", len(specs), len(again))
		}
		for i, s := range again {
			if s.Key() != keys[i] {
				t.Errorf("run %d: key changed across parses: %q vs %q", i, keys[i], s.Key())
			}
		}
	})
}
