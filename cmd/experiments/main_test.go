package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCLI compiles this command once into a temp dir so the validation
// cases below exercise the real flag-parsing path end to end.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "experiments")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestRecoveryFlagValidation: the fault-injection and recovery flags are
// gone with the model paths they drove, so each is an undefined flag
// (exit 2 from the flag package), and the availability sweep is an
// unknown experiment.
func TestRecoveryFlagValidation(t *testing.T) {
	bin := buildCLI(t)
	for _, args := range [][]string{
		{"-faults", "scenario.json"}, {"-retrain", "1us"}, {"-crcretries", "4"},
	} {
		out, err := exec.Command(bin, append([]string{"-run", "tableI"}, args...)...).CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("%v: err = %v, want exit status 2\n%s", args, err, out)
			continue
		}
		if want := "flag provided but not defined: " + args[0]; !strings.Contains(string(out), want) {
			t.Errorf("%v: output lacks %q:\n%s", args, want, out)
		}
	}
	out, err := exec.Command(bin, "-run", "avail").CombinedOutput()
	if err == nil || !strings.Contains(string(out), `unknown experiment "avail"`) {
		t.Errorf("-run avail: err = %v, want an unknown-experiment failure\n%s", err, out)
	}
}
