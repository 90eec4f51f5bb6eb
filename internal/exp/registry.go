package exp

import "sort"

// Experiment is one regenerable table or figure.
type Experiment struct {
	Name string
	// What the experiment reproduces.
	Description string
	// Heavy experiments sweep hundreds of simulations.
	Heavy bool
	Run   func(r *Runner) string
}

// Registry maps experiment IDs to generators, covering every table and
// figure in the paper's evaluation (see DESIGN.md §5).
var Registry = []Experiment{
	{"tableI", "Table I: HMC DRAM array parameters", false, TableI},
	{"tableII", "Table II: processor model (substituted front end)", false, TableII},
	{"tableIII", "Table III: workload composition", false, TableIII},
	{"fig4", "Fig. 4: workload access CDFs", false, Fig4},
	{"fig5", "Fig. 5: full-power per-HMC power breakdown", true, Fig5},
	{"fig6", "Fig. 6: links traversed per memory access", true, Fig6},
	{"fig8", "Fig. 8: idle I/O power share by workload", true, Fig8},
	{"fig9", "Fig. 9: channel and link utilization", true, Fig9},
	{"fig11", "Fig. 11: power under network-unaware management", true, Fig11},
	{"fig12", "Fig. 12: perf overhead of network-unaware management", true, Fig12},
	{"fig13", "Fig. 13: link hours by VWL mode and utilization", true, Fig13},
	{"fig15", "Fig. 15: power saving of aware vs unaware", true, Fig15},
	{"fig16", "Fig. 16: power saving by workload (big networks)", true, Fig16},
	{"fig17", "Fig. 17: perf overhead of network-aware management", true, Fig17},
	{"fig18", "Fig. 18: DVFS and 20ns-ROO sensitivity", true, Fig18},
	{"static", "Sec. VII-A: static fat/tapered baseline study", true, StaticStudy},
	{"seeds", "Extension: robustness of the headline cell across seeds", true, SeedStudy},
	{"summary", "Headline paper-vs-measured comparison", true, Summary},
}

// Lookup finds an experiment by name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Registry {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Names returns all experiment IDs, sorted.
func Names() []string {
	out := make([]string, len(Registry))
	for i, e := range Registry {
		out[i] = e.Name
	}
	sort.Strings(out)
	return out
}
