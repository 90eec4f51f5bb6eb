package dram

import (
	"strings"
	"testing"

	"memnet/internal/sim"
)

// Every declared sweep axis must actually perturb the config — a dead
// axis would make a calibration sensitivity sweep vacuously pass.
func TestScaledPerturbsEveryDeclaredParam(t *testing.T) {
	base := DefaultConfig()
	for _, param := range ScalableParams() {
		up, err := base.Scaled(param, 2)
		if err != nil {
			t.Fatalf("Scaled(%q, 2): %v", param, err)
		}
		if up == base {
			t.Errorf("Scaled(%q, 2) left the config unchanged", param)
		}
		if up.Fingerprint() == base.Fingerprint() {
			t.Errorf("Scaled(%q, 2) not visible in Fingerprint", param)
		}
		same, err := base.Scaled(param, 1)
		if err != nil {
			t.Fatalf("Scaled(%q, 1): %v", param, err)
		}
		if same != base {
			t.Errorf("Scaled(%q, 1) is not the identity: %+v", param, same)
		}
	}
}

func TestScaledRejectsBadInput(t *testing.T) {
	base := DefaultConfig()
	if _, err := base.Scaled("tCAS", 1.1); err == nil || !strings.Contains(err.Error(), "unknown scalable parameter") {
		t.Errorf("unknown parameter accepted (err=%v)", err)
	}
	for _, f := range []float64{0, -1} {
		if _, err := base.Scaled("tCL", f); err == nil {
			t.Errorf("factor %g accepted", f)
		}
	}
	// Scaling that breaks a cross-field invariant must surface the
	// Validate error: tRFC blown past tREFI is not a usable config.
	if _, err := base.Scaled("tRFC", 1000); err == nil || !strings.Contains(err.Error(), "refresh") {
		t.Errorf("tRFC x1000 produced no refresh validation error (err=%v)", err)
	}
}

// Fingerprint keys sweep memoization: any field drifting without the
// fingerprint changing would silently alias two different models.
func TestFingerprintCoversEveryField(t *testing.T) {
	base := DefaultConfig()
	perturbed := []struct {
		name string
		mut  func(*Config)
	}{
		{"Vaults", func(c *Config) { c.Vaults++ }},
		{"Banks", func(c *Config) { c.Banks++ }},
		{"QueueDepth", func(c *Config) { c.QueueDepth++ }},
		{"LineBytes", func(c *Config) { c.LineBytes *= 2 }},
		{"BusBits", func(c *Config) { c.BusBits *= 2 }},
		{"BusGbps", func(c *Config) { c.BusGbps *= 1.5 }},
		{"TCL", func(c *Config) { c.TCL += sim.Nanosecond }},
		{"TRCD", func(c *Config) { c.TRCD += sim.Nanosecond }},
		{"TRAS", func(c *Config) { c.TRAS += sim.Nanosecond }},
		{"TRP", func(c *Config) { c.TRP += sim.Nanosecond }},
		{"TRRD", func(c *Config) { c.TRRD += sim.Nanosecond }},
		{"TWR", func(c *Config) { c.TWR += sim.Nanosecond }},
		{"TREFI", func(c *Config) { c.TREFI += sim.Nanosecond }},
		{"TRFC", func(c *Config) { c.TRFC += sim.Nanosecond }},
	}
	seen := map[string]string{base.Fingerprint(): "base"}
	for _, p := range perturbed {
		cfg := base
		p.mut(&cfg)
		fp := cfg.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("perturbing %s collides with %s: %s", p.name, prev, fp)
		}
		seen[fp] = p.name
	}
}
