package exp

import (
	"strings"
	"testing"

	"memnet/internal/sim"
	"memnet/internal/workload"
)

// tinyRunner sweeps a single fast workload with microscopic sim windows so
// every generator's full control flow runs in test time.
func tinyRunner() *Runner {
	r := NewRunner()
	r.SimTime = 30 * sim.Microsecond
	r.Warmup = 10 * sim.Microsecond
	small := tinyProfile()
	small.Name = "tiny" // 2 modules small, 8 big
	r.Workloads = []*workload.Profile{small}
	return r
}

// TestEveryGeneratorRenders runs every registered experiment end to end on
// the reduced sweep and checks the output is a plausible table.
func TestEveryGeneratorRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy generator sweep")
	}
	r := tinyRunner()
	for _, e := range Registry {
		if e.Name == "seeds" {
			continue // fixed workload; covered separately
		}
		out := e.Run(r)
		if len(out) < 40 || !strings.Contains(out, "\n") {
			t.Errorf("%s rendered %d bytes", e.Name, len(out))
		}
	}
}

// TestExtensionGeneratorsRender covers the fixed-workload seed study.
func TestExtensionGeneratorsRender(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy generator sweep")
	}
	r := NewRunner()
	r.SimTime = 20 * sim.Microsecond
	r.Warmup = 5 * sim.Microsecond
	if out := SeedStudy(r); strings.Count(out, "\n") < 4 {
		t.Errorf("seeds output:\n%s", out)
	}
}

func TestReportHeader(t *testing.T) {
	r := NewRunner()
	if !strings.Contains(ReportHeader(r), "warmup") {
		t.Fatal("header missing warmup")
	}
}
