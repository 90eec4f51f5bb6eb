package core

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"memnet/internal/link"
	"memnet/internal/sim"
	"memnet/internal/topology"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// oracleMech is one mechanism the oracle covers, with the largest tree it
// enumerates: 4 modes per link up to 5 modules, 16 up to 3.
type oracleMech struct {
	name    string
	mech    link.Mechanism
	roo     bool
	maxMods int
}

var oracleMechs = []oracleMech{
	{"VWL", link.MechVWL, false, 5},
	{"DVFS", link.MechDVFS, false, 5},
	{"ROO", link.MechNone, true, 5},
	{"VWL+ROO", link.MechVWL, true, 3},
}

// oracleInstance draws one epoch's worth of isp inputs shaped like
// buildFLOTable's: bandwidth FLO grows as bandwidth drops and with the
// link's load; ROO FLO and off-time fractions fall as the threshold rises.
// Candidates and response-link ROO tables follow Reconfigure.
func oracleInstance(rng *rand.Rand, kind topology.Kind, n int, om oracleMech) (*ispInstance, error) {
	topo, err := topology.Build(kind, n)
	if err != nil {
		return nil, err
	}
	hasBW := om.mech != link.MechNone
	in := &ispInstance{
		topo:  topo,
		flo:   make([]floTable, 2*n),
		src:   make([]bool, 2*n),
		cfg:   DefaultConfig(PolicyAware, 0.05),
		split: hasBW && om.roo,
	}
	var maxFLO sim.Duration
	for li := range in.flo {
		load := rng.Float64()
		t := floTable{mech: om.mech, roo: om.roo, bwFLO: make([]sim.Duration, link.NumModes(om.mech))}
		for m := 1; m < len(t.bwFLO); m++ {
			t.bwFLO[m] = t.bwFLO[m-1] + sim.Duration(rng.Int63n(1+int64(4000*load)))
		}
		if om.roo && li%2 == 0 {
			t.rooFLO[link.ROOFullMode] = sim.Duration(rng.Int63n(1 + int64(300*load)))
			t.offFrac[link.ROOFullMode] = 0.5 * (1 - load) * rng.Float64()
			for r := link.ROOFullMode - 1; r >= 0; r-- {
				t.rooFLO[r] = t.rooFLO[r+1] + sim.Duration(rng.Int63n(1+int64(1000*load)))
				t.offFrac[r] = min(1, t.offFrac[r+1]+0.25*rng.Float64())
			}
		}
		if om.roo && li%2 == 1 {
			for r := range t.offFrac {
				t.offFrac[r] = rng.Float64()
			}
		}
		in.flo[li] = t
		in.src[li] = li%2 == 0 || hasBW
		if in.src[li] {
			maxFLO += t.bwFLO[len(t.bwFLO)-1] + t.rooFLO[0]
		}
	}
	in.pool = sim.Duration(rng.Int63n(1 + int64(maxFLO)))
	return in, nil
}

// treeChoice is one monotone assignment of modes to a link-type tree.
type treeChoice struct {
	flo   sim.Duration
	score float64
}

// monotoneChoices enumerates every mode assignment of tree off (0 request,
// 1 response) that gather's invariant accepts, with its total FLO and
// score; the other tree's links keep sel's modes.
func monotoneChoices(in *ispInstance, off int) []treeChoice {
	n := in.topo.N()
	sel := make([]Mode, 2*n)
	for li := range sel {
		sel[li] = FullMode
	}
	modes := in.flo[off].modes()
	var out []treeChoice
	idx := make([]int, n)
	for {
		var c treeChoice
		for m := 0; m < n; m++ {
			li := 2*m + off
			sel[li] = modes[idx[m]]
			c.flo += in.flo[li].flo(sel[li])
			c.score += in.flo[li].score(sel[li])
		}
		if nonMonotoneLink(in.topo, in.flo, sel) < 0 {
			out = append(out, c)
		}
		m := 0
		for ; m < n && idx[m] == len(modes)-1; m++ {
			idx[m] = 0
		}
		if m == n {
			return out
		}
		idx[m]++
	}
}

// oracleBest returns the lowest total score over every monotone assignment
// of the candidate trees whose total FLO fits the pool, and whether one
// exists. ROO-only response links carry no budget and are left out, as
// isp leaves them.
func oracleBest(in *ispInstance) (float64, bool) {
	req := monotoneChoices(in, 0)
	resp := []treeChoice{{}}
	if in.src[1] {
		resp = monotoneChoices(in, 1)
	}
	// Cheapest score at or below each FLO, for a search per request choice.
	sort.Slice(resp, func(i, j int) bool { return resp[i].flo < resp[j].flo })
	for i := 1; i < len(resp); i++ {
		resp[i].score = min(resp[i].score, resp[i-1].score)
	}
	best, found := 0.0, false
	for _, c := range req {
		room := in.pool - c.flo
		k := sort.Search(len(resp), func(i int) bool { return resp[i].flo > room })
		if k == 0 {
			continue
		}
		if s := c.score + resp[k-1].score; !found || s < best {
			best, found = s, true
		}
	}
	return best, found
}

// ispTotals returns isp's total FLO and score over the candidate trees.
func ispTotals(in *ispInstance, sel []Mode) (sim.Duration, float64) {
	var flo sim.Duration
	var score float64
	for li, m := range sel {
		if li%2 == 0 || in.src[1] {
			flo += in.flo[li].flo(m)
			score += in.flo[li].score(m)
		}
	}
	return flo, score
}

// TestISPOracle compares isp with an exhaustive search on tiny trees and
// pins the report in testdata/isp_oracle.golden (regenerate with
// -update). The gap is isp's total power score over the best monotone
// assignment within the input pool, as a percentage of the latter; only
// instances where both fit the pool count toward it. An instance where
// isp's total FLO exceeds the pool is over budget; the oracle may find no
// assignment at all when even full mode's ROO FLO exceeds the pool.
func TestISPOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var report strings.Builder
	fmt.Fprintf(&report, "ISP vs exhaustive oracle: 4 topology kinds x 1..max modules x 5 instances, seed 1\n")
	fmt.Fprintf(&report, "%-8s %9s %9s %8s %12s %13s %11s\n",
		"mech", "instances", "feasible", "compared", "mean_gap_%", "worst_gap_%", "over_budget")
	var flagged []string
	for _, om := range oracleMechs {
		var instances, feasible, compared, over int
		var sumGap, worstGap float64
		for kind := topology.DaisyChain; kind <= topology.DDRxLike; kind++ {
			for n := 1; n <= om.maxMods; n++ {
				for k := 0; k < 5; k++ {
					in, err := oracleInstance(rng, kind, n, om)
					if err != nil {
						t.Fatal(err)
					}
					instances++
					got := in.run()
					flo, score := ispTotals(in, got.sel)
					best, ok := oracleBest(in)
					if ok {
						feasible++
					}
					if flo > in.pool {
						over++
						flagged = append(flagged, fmt.Sprintf("  %-8s %-12s n=%d #%d: pool %d ps, isp FLO %d ps",
							om.name, kind, n, k, in.pool, flo))
						continue
					}
					if !ok {
						t.Fatalf("%s %s n=%d #%d: isp fits the pool but the oracle found nothing", om.name, kind, n, k)
					}
					gap := 100 * (score - best) / best
					if gap < -1e-9 {
						t.Fatalf("%s %s n=%d #%d: isp beats the oracle by %.6f%%", om.name, kind, n, k, -gap)
					}
					compared++
					sumGap += gap
					worstGap = max(worstGap, gap)
				}
			}
		}
		mean := 0.0
		if compared > 0 {
			mean = sumGap / float64(compared)
		}
		fmt.Fprintf(&report, "%-8s %9d %9d %8d %12.3f %13.3f %11d\n",
			om.name, instances, feasible, compared, mean, worstGap, over)
	}
	fmt.Fprintf(&report, "over budget (isp's total FLO exceeds the input pool):\n")
	for _, f := range flagged {
		fmt.Fprintln(&report, f)
	}

	golden := filepath.Join("testdata", "isp_oracle.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(report.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := report.String(); got != string(want) {
		t.Fatalf("oracle report drifted from %s (regenerate with -update):\n%s", golden, got)
	}
}
