package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"memnet/internal/link"
	"memnet/internal/sim"
	"memnet/internal/topology"
)

// ispInstance is one set of isp arguments.
type ispInstance struct {
	topo  *topology.Topology
	flo   []floTable
	src   []bool
	pool  sim.Duration
	cfg   Config
	split bool
}

func (in *ispInstance) run() ispResult {
	return isp(in.topo, in.flo, in.src, in.pool, &in.cfg, in.split)
}

// fuzzBytes hands out a fuzz input one value at a time, reading zeros once
// the input runs out.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

func (b *fuzzBytes) u16() sim.Duration { return sim.Duration(b.next())<<8 | sim.Duration(b.next()) }

// decodeISP turns fuzz bytes into an instance: any topology kind with 1-12
// modules, one mechanism for every link with or without ROO, per-link FLO
// tables whose bandwidth FLO starts at 0 and never falls as bandwidth
// drops, arbitrary ROO FLO and off-time fractions, arbitrary candidate
// flags, a pool and 0-3 rounds.
func decodeISP(data []byte) (*ispInstance, error) {
	b := fuzzBytes(data)
	topo, err := topology.Build(topology.Kind(b.next()%4), 1+int(b.next()%12))
	if err != nil {
		return nil, err
	}
	mech := []link.Mechanism{link.MechNone, link.MechVWL, link.MechDVFS}[b.next()%3]
	roo := b.next()%2 == 1
	in := &ispInstance{
		topo:  topo,
		flo:   make([]floTable, 2*topo.N()),
		src:   make([]bool, 2*topo.N()),
		cfg:   DefaultConfig(PolicyAware, 0.05),
		split: mech != link.MechNone && roo,
	}
	for li := range in.flo {
		t := floTable{mech: mech, roo: roo, bwFLO: make([]sim.Duration, link.NumModes(mech))}
		for m := 1; m < len(t.bwFLO); m++ {
			t.bwFLO[m] = t.bwFLO[m-1] + b.u16()
		}
		if roo {
			for r := range t.rooFLO {
				t.rooFLO[r] = b.u16()
				t.offFrac[r] = float64(b.next()) / 255
			}
		}
		in.flo[li] = t
		in.src[li] = b.next()%2 == 1
	}
	in.pool = 4 * b.u16()
	in.cfg.ISPIterations = int(b.next() % 4)
	return in, nil
}

// FuzzISP holds isp to the recursive reference it replaced, exactly, and
// checks its invariants on every input: the arguments are left as they
// were, the selection is monotone, and with a bandwidth mechanism alone no
// AMS is created.
func FuzzISP(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := decodeISP(data)
		if err != nil {
			t.Fatal(err)
		}
		floBefore := cloneFLO(in.flo)
		srcBefore := slices.Clone(in.src)
		got := in.run()
		if !reflect.DeepEqual(in.flo, floBefore) || !slices.Equal(in.src, srcBefore) {
			t.Fatal("isp modified its arguments")
		}
		want := ispRef(in.topo, cloneFLO(in.flo), slices.Clone(in.src), in.pool, &in.cfg, in.split)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("isp diverges from the reference\n got %+v\nwant %+v", got, want)
		}
		if li := nonMonotoneLink(in.topo, in.flo, got.sel); li >= 0 {
			t.Fatalf("link %d scores below the best mode beneath it and does not hold it: %+v", li, got.sel)
		}
		if !in.flo[0].roo {
			checkBandwidthConservation(t, in, got)
		}
	})
}

func cloneFLO(flo []floTable) []floTable {
	out := slices.Clone(flo)
	for i := range out {
		out[i].bwFLO = slices.Clone(out[i].bwFLO)
	}
	return out
}

// nonMonotoneLink returns a link that breaks gather's invariant, or -1. In
// each link-type tree an upstream link must score its own mode at least as
// high as the best score below it (less gather's 1e-12 tolerance), or hold
// the mode of a link below that has that score: scores are per-link, so a
// raised link may score its new mode lower than the link it copied.
func nonMonotoneLink(topo *topology.Topology, flo []floTable, sel []Mode) int {
	for li := range sel {
		below := topo.Subtree(li / 2)[1:] // Subtree lists its root first
		if len(below) == 0 {
			continue
		}
		best := -1.0
		for _, d := range below {
			best = max(best, flo[2*d+li%2].score(sel[2*d+li%2]))
		}
		if flo[li].score(sel[li]) >= best-1e-12 {
			continue
		}
		holds := false
		for _, d := range below {
			dl := 2*d + li%2
			holds = holds || flo[dl].score(sel[dl]) == best && sel[dl] == sel[li]
		}
		if !holds {
			return li
		}
	}
	return -1
}

// divisorBound bounds the sum of the integer divisors one isp call divides
// by. Each round divides the pool by the candidate count (or by the request
// and response counts, which sum to it) and each candidate with candidates
// below divides its leftover by their number. Candidates only drop out, so
// the counts on entry bound every round's.
func divisorBound(topo *topology.Topology, src []bool, rounds int) sim.Duration {
	var perRound sim.Duration
	for li, ok := range src {
		if !ok {
			continue
		}
		perRound++ // li counts toward the pool's divisor
		for _, d := range topo.Subtree(li / 2)[1:] {
			if src[2*d+li%2] {
				perRound++ // and each candidate below li toward li's
			}
		}
	}
	return sim.Duration(rounds) * perRound
}

// checkBandwidthConservation asserts that with bandwidth modes alone, where
// full bandwidth has zero FLO and FLO never falls as bandwidth drops, isp
// creates no AMS and loses only integer-division remainders: the input
// pool minus (Σ per-link AMS + returned pool) is at least 0 and, if not 0,
// below the sum of the divisors used. Each division x/d with x ≥ 0 loses
// at most d-1 ps, and nothing else gains or loses: a scatter leftover is
// never negative because full bandwidth always fits, and a gather raise
// only lowers a link's FLO because higher-power bandwidth modes have lower
// FLO on every link.
func checkBandwidthConservation(t *testing.T, in *ispInstance, got ispResult) {
	t.Helper()
	loss := in.pool - got.pool
	for _, a := range got.ams {
		loss -= a
	}
	bound := divisorBound(in.topo, in.src, got.rounds)
	if loss < 0 || loss > 0 && loss >= bound {
		t.Fatalf("pool %d: granted %v + returned %d loses %d ps, want 0 <= loss < %d",
			in.pool, got.ams, got.pool, loss, bound)
	}
}

// TestISPConservationBandwidthOnly runs the bandwidth-only conservation
// check over seeded instances on every topology kind, so that it runs
// without the fuzzing engine.
func TestISPConservationBandwidthOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for seed := 0; seed < 400; seed++ {
		data := make([]byte, 400)
		rng.Read(data)
		data[2] = byte(1 + seed%2) // VWL or DVFS
		data[3] = 0                // no ROO
		in, err := decodeISP(data)
		if err != nil {
			t.Fatal(err)
		}
		checkBandwidthConservation(t, in, in.run())
	}
}

// ispChain2 is a two-module daisy chain instance whose response links are
// idle non-candidates; tests fill in the request tables (links 0 and 2).
func ispChain2(t *testing.T, mech link.Mechanism, pool sim.Duration) *ispInstance {
	t.Helper()
	topo, err := topology.Build(topology.DaisyChain, 2)
	if err != nil {
		t.Fatal(err)
	}
	in := &ispInstance{
		topo:  topo,
		flo:   make([]floTable, 4),
		src:   []bool{true, false, true, false},
		pool:  pool,
		cfg:   DefaultConfig(PolicyAware, 0.05),
		split: mech != link.MechNone,
	}
	for li := range in.flo {
		in.flo[li] = floTable{mech: mech, roo: true, bwFLO: make([]sim.Duration, link.NumModes(mech))}
	}
	return in
}

func createdAMS(in *ispInstance, got ispResult) sim.Duration {
	created := got.pool - in.pool
	for _, a := range got.ams {
		created += a
	}
	return created
}

// TestISPScatterOverdraft pins the first way ISP creates AMS under ROO.
// Even the least aggressive threshold (2048 ns, "full" ROO mode) turns a
// link off and costs FLO, so a link whose budget cannot pay for it falls
// back to full mode anyway and overdraws. Link 0 receives 60 ps of the
// 120 ps pool, keeps a 100 ps mode and hands its -40 ps leftover down;
// link 2 then receives 60-40 = 20 ps, keeps a 100 ps mode and, with no
// candidate below it, drops its -80 ps leftover. 200 ps of AMS are
// granted out of 120: 80 ps created.
func TestISPScatterOverdraft(t *testing.T) {
	in := ispChain2(t, link.MechNone, 120)
	for _, li := range []int{0, 2} {
		in.flo[li].rooFLO = [link.NumROOModes]sim.Duration{400, 300, 200, 100}
		in.flo[li].offFrac = [link.NumROOModes]float64{0.9, 0.6, 0.3, 0.1}
	}
	got := in.run()
	want := ispResult{
		sel:    []Mode{FullMode, FullMode, FullMode, FullMode},
		ams:    []sim.Duration{100, 0, 100, 0},
		pool:   0,
		rounds: 1,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("isp = %+v, want %+v", got, want)
	}
	if c := createdAMS(in, got); c != 80 {
		t.Fatalf("created %d ps, want 80", c)
	}
}

// TestISPGatherRaise pins the second way ISP creates AMS under ROO: a
// gather raise that costs FLO on the raised link's own table. Under
// VWL+ROO the 400 ps pool gives each request link 200 ps. Link 0 never
// sleeps, so it takes 1 lane at the 2048 ns threshold (score 2/17, FLO
// 150) and hands its 50 ps leftover down. Link 2 sleeps 80% of the time
// at 32 ns, so its best mode in 250 ps is full width at 32 ns (score
// 0.208, FLO 100), and its 150 ps leftover returns to the pool. Gather
// then raises link 0 to full width at 32 ns, which costs 400 ps on link
// 0's table: the 250 ps increase is charged to no one.
func TestISPGatherRaise(t *testing.T) {
	in := ispChain2(t, link.MechVWL, 400)
	in.flo[0].bwFLO = []sim.Duration{0, 10, 20, 50}
	in.flo[0].rooFLO = [link.NumROOModes]sim.Duration{400, 300, 200, 100}
	in.flo[2].bwFLO = []sim.Duration{0, 1000, 2000, 3000}
	in.flo[2].rooFLO = [link.NumROOModes]sim.Duration{100, 80, 60, 40}
	in.flo[2].offFrac = [link.NumROOModes]float64{0.8, 0.5, 0.2, 0}
	got := in.run()
	want := ispResult{
		sel:    []Mode{{BW: 0, ROO: 0}, FullMode, {BW: 0, ROO: 0}, FullMode},
		ams:    []sim.Duration{400, 0, 100, 0},
		pool:   150,
		rounds: 1,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("isp = %+v, want %+v", got, want)
	}
	if c := createdAMS(in, got); c != 250 {
		t.Fatalf("created %d ps, want 250", c)
	}
}
